package router

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/serve"
	"repro/internal/shard"
)

// ReplicaStatus is one backend's health as the router sees it.
type ReplicaStatus struct {
	Name       string `json:"name"`
	Base       string `json:"base"`
	Healthy    bool   `json:"healthy"`
	Generation uint64 `json:"generation"`
	// Lag is how many generations this replica trails the fleet maximum;
	// Lagging marks lag beyond Options.MaxLag. A lagging replica keeps
	// serving (stale answers beat no answers) but operators should look.
	Lag     uint64 `json:"lag"`
	Lagging bool   `json:"lagging"`
	// Weight is the replica's static rendezvous weight (default 1).
	Weight   float64 `json:"weight"`
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	// Misroutes counts 421 answers: the replica disowned a routed user.
	Misroutes uint64 `json:"misroutes,omitempty"`
	// Draining mirrors the replica's advertised drain latch; the router
	// sends it new owner-routed work only when no non-draining candidate
	// remains.
	Draining bool `json:"draining,omitempty"`
	// Shard is the user range the replica advertises owning (absent on
	// full-snapshot replicas).
	Shard     *shard.Info `json:"shard,omitempty"`
	LastError string      `json:"lastError,omitempty"`
}

// Stats is the router's /api/stats payload.
type Stats struct {
	// Generation is the fleet-wide newest generation observed.
	Generation uint64 `json:"generation"`
	// Healthy counts replicas currently marked healthy.
	Healthy int `json:"healthy"`
	// Sharded reports whether any replica advertises a shard range;
	// Shards is the advertised shard count (0 when unsharded).
	Sharded bool `json:"sharded,omitempty"`
	Shards  int  `json:"shards,omitempty"`
	// Misroutes totals 421 answers across the fleet.
	Misroutes uint64          `json:"misroutes,omitempty"`
	Replicas  []ReplicaStatus `json:"replicas"`
	// Endpoints digests latency per routing class (route/scatter/proxy),
	// in the same shape as a single replica's per-endpoint stats.
	Endpoints map[string]serve.EndpointStats `json:"endpoints"`
	// SharedScatters counts scatter requests that joined an identical
	// in-flight query's fan-out instead of launching their own.
	SharedScatters uint64 `json:"sharedScatters"`
	// PartialRanks counts rank answers whose Members were summed over
	// fewer shards than the fleet has: no generation had every shard's
	// answer (a shard's only replica down, or mid-rollout).
	PartialRanks uint64 `json:"partialRanks"`
}

// Stats snapshots the router's view of the fleet.
func (rt *Router) Stats() Stats {
	max := rt.maxGeneration()
	st := Stats{
		Generation:     max,
		Endpoints:      make(map[string]serve.EndpointStats, opCount),
		SharedScatters: rt.sharedScatters.Load(),
		PartialRanks:   rt.partialRanks.Load(),
	}
	for _, r := range rt.replicas {
		gen := r.generation.Load()
		r.mu.Lock()
		lastErr := r.lastErr
		r.mu.Unlock()
		rs := ReplicaStatus{
			Name:       r.name,
			Base:       r.base,
			Healthy:    r.healthy.Load(),
			Generation: gen,
			Lag:        max - gen,
			Weight:     r.weight,
			Requests:   r.requests.Load(),
			Errors:     r.errors.Load(),
			Misroutes:  r.misroutes.Load(),
			Draining:   r.draining.Load(),
			Shard:      r.shard.Load(),
			LastError:  lastErr,
		}
		rs.Lagging = rs.Lag > rt.opts.MaxLag
		if rs.Healthy {
			st.Healthy++
		}
		if rs.Shard != nil {
			st.Sharded = true
			st.Shards = rs.Shard.Count
		}
		st.Misroutes += rs.Misroutes
		st.Replicas = append(st.Replicas, rs)
	}
	for i := 0; i < opCount; i++ {
		st.Endpoints[opNames[i]] = serve.DigestEndpoint(rt.lat[i].Snapshot())
	}
	return st
}

// WriteMetrics emits the router's Prometheus exposition: per-replica
// up/generation/lag gauges and request/error/misroute counters plus
// per-class latency histograms in the shared internal/hist geometry.
func (rt *Router) WriteMetrics(w io.Writer) {
	st := rt.Stats()
	families := []struct {
		name, typ, help string
		get             func(ReplicaStatus) float64
	}{
		{"cpd_router_replica_up", "gauge", "Replica health as the router sees it (1 healthy).", func(r ReplicaStatus) float64 {
			if r.Healthy {
				return 1
			}
			return 0
		}},
		{"cpd_router_replica_generation", "gauge", "Publisher generation the replica serves.", func(r ReplicaStatus) float64 {
			return float64(r.Generation)
		}},
		{"cpd_router_replica_lag", "gauge", "Generations the replica trails the fleet maximum.", func(r ReplicaStatus) float64 {
			return float64(r.Lag)
		}},
		{"cpd_router_replica_requests_total", "counter", "Backend requests the router sent this replica.", func(r ReplicaStatus) float64 {
			return float64(r.Requests)
		}},
		{"cpd_router_replica_errors_total", "counter", "Backend transport failures for this replica.", func(r ReplicaStatus) float64 {
			return float64(r.Errors)
		}},
		{"cpd_router_replica_misroutes_total", "counter", "421 answers: the replica disowned a routed user.", func(r ReplicaStatus) float64 {
			return float64(r.Misroutes)
		}},
		{"cpd_router_replica_draining", "gauge", "Replica advertised draining (1 draining).", func(r ReplicaStatus) float64 {
			if r.Draining {
				return 1
			}
			return 0
		}},
		{"cpd_router_replica_weight", "gauge", "Static rendezvous weight.", func(r ReplicaStatus) float64 {
			return r.Weight
		}},
		{"cpd_router_replica_shard_index", "gauge", "Owned shard index (-1 on full-snapshot replicas).", func(r ReplicaStatus) float64 {
			if r.Shard == nil {
				return -1
			}
			return float64(r.Shard.Index)
		}},
	}
	for _, g := range families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", g.name, g.help, g.name, g.typ)
		for _, r := range st.Replicas {
			fmt.Fprintf(w, "%s{replica=%q} %s\n", g.name, r.Name, strconv.FormatFloat(g.get(r), 'g', -1, 64))
		}
	}
	fmt.Fprintf(w, "# HELP cpd_router_generation Fleet-wide newest generation observed.\n# TYPE cpd_router_generation gauge\ncpd_router_generation %d\n", st.Generation)
	fmt.Fprintf(w, "# HELP cpd_router_shards Advertised shard count (0 unsharded).\n# TYPE cpd_router_shards gauge\ncpd_router_shards %d\n", st.Shards)
	fmt.Fprintf(w, "# HELP cpd_router_shared_scatters_total Scatter requests that joined an identical in-flight fan-out.\n# TYPE cpd_router_shared_scatters_total counter\ncpd_router_shared_scatters_total %d\n", st.SharedScatters)
	fmt.Fprintf(w, "# HELP cpd_router_partial_ranks_total Rank answers summed over fewer shards than the fleet has.\n# TYPE cpd_router_partial_ranks_total counter\ncpd_router_partial_ranks_total %d\n", st.PartialRanks)
	fmt.Fprint(w, "# HELP cpd_router_latency_seconds Routed request latency per class (route, scatter, proxy).\n# TYPE cpd_router_latency_seconds histogram\n")
	for i := 0; i < opCount; i++ {
		h := rt.lat[i].Snapshot()
		h.WriteProm(w, "cpd_router_latency_seconds", "class="+strconv.Quote(opNames[i]))
	}
}
