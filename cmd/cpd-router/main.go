// Command cpd-router is the distributed serving front: a stateless tier
// over N cpd-serve replicas that all pull the same publisher's snapshot
// generations. Membership and fold-in requests route to the replica
// owning the user (rendezvous hash, stable across fleet changes);
// diffusion goes to the owner of u; rank scatters to the fleet and sums
// one answer per shard into the answer a single node gives from the same
// generation, bit for bit; community browsing proxies to the freshest
// replica. The query surface is cpd-serve's own JSON API, so every
// client — curl, cpd-loadgen -url, cpd-lens -quality-url — points at
// the router unchanged.
//
// Usage:
//
//	cpd-router -replica a=http://10.0.0.1:8080 -replica b=http://10.0.0.2:8080 -addr :9090
//
//	curl localhost:9090/api/user?id=42        # owner-routed
//	curl localhost:9090/api/rank?w=17&k=5     # scatter-gather merge
//	curl localhost:9090/api/stats             # per-replica health/generation/lag
//	curl localhost:9090/metrics               # cpd_router_* exposition
//
//	cpd-loadgen -url http://localhost:9090    # load-test through the router
//
// The router polls each replica's /api/generation to track health and
// generation lag; replicas that trail the fleet beyond -max-lag are
// marked lagging on /api/stats and /metrics but keep serving (stale
// answers beat no answers). A replica that dies mid-scatter degrades
// redundancy, not availability.
//
// Sharded fleets need no extra configuration: replicas started with
// cpd-serve -fetch-shard advertise their owned user range on
// /api/generation, and a replica that advertises none owns every user,
// as shard 0 of 1 — one routing path serves full replication, N shards
// and N shards × R replicas alike. Users route to the replicas owning
// them (421 answers fail over, as do dead owners to their shard's other
// replicas), rank Members are summed across shards, and cross-shard
// diffusion and fold-in are hydrated with /api/pirow rows from the
// owners. A replica that has been POSTed /api/drain leaves the preferred
// rotation until it restarts.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

// replicaFlags collects repeated -replica name=url[@weight] values.
type replicaFlags []router.Replica

func (f *replicaFlags) String() string {
	parts := make([]string, len(*f))
	for i, r := range *f {
		parts[i] = r.Name + "=" + r.Base
		if r.Weight != 0 && r.Weight != 1 {
			parts[i] += "@" + strconv.FormatFloat(r.Weight, 'g', -1, 64)
		}
	}
	return strings.Join(parts, ",")
}

func (f *replicaFlags) Set(v string) error {
	name, base, ok := strings.Cut(v, "=")
	if !ok || name == "" || base == "" {
		return fmt.Errorf("replica spec %q is not name=url[@weight]", v)
	}
	weight := 1.0
	// The weight separator is the last '@' after the scheme's "://", so
	// user-info URLs (user@host) keep working as long as the weight is
	// explicit or absent.
	if at := strings.LastIndex(base, "@"); at > strings.Index(base, "://")+2 {
		w, err := strconv.ParseFloat(base[at+1:], 64)
		if err == nil {
			if w <= 0 {
				return fmt.Errorf("replica spec %q has non-positive weight", v)
			}
			base, weight = base[:at], w
		}
	}
	*f = append(*f, router.Replica{Name: name, Base: base, Weight: weight})
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cpd-router: ")
	var replicas replicaFlags
	flag.Var(&replicas, "replica", "backend replica, name=url[@weight]; repeat per replica (required; the name is the stable rendezvous identity, the weight its share of owner-routed keys)")
	var (
		addr    = flag.String("addr", ":9090", "listen address")
		poll    = flag.Duration("poll-interval", time.Second, "replica health/generation poll period")
		timeout = flag.Duration("timeout", 10*time.Second, "backend request timeout")
		maxLag  = flag.Uint64("max-lag", 1, "generations a replica may trail the fleet before it is marked lagging")
	)
	flag.Parse()
	if len(replicas) == 0 {
		log.Fatal("at least one -replica name=url is required")
	}
	// A scatter multiplies every rank request by the fleet size,
	// all aimed at a handful of hosts — http.DefaultTransport's 2 idle
	// conns per host would churn TCP setup under any real concurrency.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = 256
	transport.MaxIdleConnsPerHost = 64
	rt, err := router.New(replicas, router.Options{
		Client:       &http.Client{Timeout: *timeout, Transport: transport},
		PollInterval: *poll,
		MaxLag:       *maxLag,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.Run(ctx)
	fmt.Printf("cpd-router listening on %s (%d replicas)\n", *addr, len(replicas))
	if err := serve.RunHTTP(*addr, rt.Handler()); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
