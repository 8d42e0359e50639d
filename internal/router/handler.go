package router

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/wire"
)

// Handler exposes the routed query surface. Paths and parameters mirror
// serve.APIHandler exactly, so any cpd-serve client — cpd-loadgen
// included — can point at a router base URL unchanged:
//
//	GET  /api/user?id=42&k=5      owner-routed membership
//	GET  /api/pirow?id=42         owner-routed membership row
//	POST /api/foldin              owner-routed fold-in (?user=K overrides the seed-derived key;
//	                              the rows of the friends the target does not own are
//	                              hydrated from their owners)
//	GET  /api/rank?w=17,204&k=10  scatter-gather, one answer per shard, Members summed
//	GET  /api/diffusion?...       to the owner of u (v's row hydrated when it owns another
//	                              range); any other method is 405
//	GET  /api/communities         freshest-replica proxy
//	GET  /api/community?id=3      freshest-replica proxy
//	GET  /api/quality             freshest-replica proxy
//	GET  /api/generation          fleet generation view
//	GET  /api/stats               per-replica health/generation/lag + endpoint latency
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 liveness + fleet summary
//
// The five query endpoints speak the compact codec of serve's wire.go
// and relay wherever they can: an owner's reply goes to the client as
// the bytes the owner wrote, a hydrated membership row travels from its
// owner to the scorer as the text the owner formatted, and only rank —
// the one merged answer — is decoded and re-encoded, once. Replies from
// replicas that still indent or order members differently decode the
// same.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	byUser := func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.URL.Query().Get("id"), 10, 64)
		if err != nil {
			http.Error(w, "bad or missing user id", http.StatusBadRequest)
			return
		}
		rt.routeToOwner(w, r, rt.userChain(id), nil)
	}
	mux.HandleFunc("/api/user", byUser)
	mux.HandleFunc("/api/pirow", byUser)
	mux.HandleFunc("/api/foldin", rt.foldInHandler)
	mux.HandleFunc("/api/rank", rt.rankHandler)
	mux.HandleFunc("/api/diffusion", rt.diffusionHandler)
	for _, path := range []string{"/api/communities", "/api/community", "/api/quality"} {
		mux.HandleFunc(path, rt.proxyFreshest)
	}
	mux.HandleFunc("/api/generation", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, serve.GenerationReport{Generation: rt.maxGeneration()})
	})
	mux.HandleFunc("/api/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, rt.Stats())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		rt.WriteMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		st := rt.Stats()
		writeJSON(w, map[string]any{
			"status":     "ok",
			"replicas":   len(st.Replicas),
			"healthy":    st.Healthy,
			"generation": st.Generation,
		})
	})
	return mux
}

var (
	jsonContentType = []string{"application/json"}
	textContentType = []string{"text/plain; charset=utf-8"}
)

// attempt sends one backend request to r, built on the replica's
// pre-parsed base URL, and returns the response with its body UNREAD.
// A body must not live in a pooled buffer: the transport may still be
// writing it out after the reply has arrived.
func (rt *Router) attempt(ctx context.Context, r *replica, method, path, rawQuery string, body []byte) (*http.Response, error) {
	u := r.url
	u.Path += path
	u.RawQuery = rawQuery
	out := (&http.Request{Method: method, URL: &u, Header: http.Header{}}).WithContext(ctx)
	if len(body) > 0 {
		out.Header["Content-Type"] = jsonContentType
		out.ContentLength = int64(len(body))
		out.Body = io.NopCloser(bytes.NewReader(body))
		out.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	r.requests.Add(1)
	resp, err := rt.opts.Client.Do(out)
	if err != nil {
		r.fail(err)
		return nil, err
	}
	r.ok()
	return resp, nil
}

// fetch is attempt with the reply read into a pooled buffer, which the
// caller hands back with wire.PutBuffer once nothing aliases it.
func (rt *Router) fetch(ctx context.Context, r *replica, method, path, rawQuery string, body []byte) (int, *wire.Buffer, error) {
	resp, err := rt.attempt(ctx, r, method, path, rawQuery, body)
	if err != nil {
		return 0, nil, err
	}
	buf := wire.GetBuffer()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		wire.PutBuffer(buf)
		r.fail(err)
		return 0, nil, err
	}
	return resp.StatusCode, buf, nil
}

// tiered offers the chain's replicas to try in routing order — healthy
// non-draining ones first in owner order, then healthy draining ones (a
// fully-draining fleet must still answer), then the unhealthy ones for a
// recovery try — until try reports the request settled.
func tiered(chain []*replica, try func(*replica) bool) bool {
	for pass := 0; pass < 3; pass++ {
		for _, r := range chain {
			healthy, draining := r.healthy.Load(), r.draining.Load()
			var want bool
			switch pass {
			case 0:
				want = healthy && !draining
			case 1:
				want = healthy && draining
			default:
				want = !healthy
			}
			if want && try(r) {
				return true
			}
		}
	}
	return false
}

var errUnreachable = errors.New("no replica reachable")

// ownerFetch sends one request down a preference chain (see tiered) and
// returns the first HTTP answer, read into a pooled buffer the caller
// releases. 421 (Misdirected Request: the replica disowns the user, its
// shard moved under the router's topology view) counts as a misroute and
// falls through to the next candidate; if every candidate misroutes, the
// last 421 is returned so the caller sees why.
func (rt *Router) ownerFetch(ctx context.Context, chain []*replica, method, path, rawQuery string, body []byte) (status int, buf *wire.Buffer, err error) {
	var mis *wire.Buffer
	answered := tiered(chain, func(r *replica) bool {
		status, buf, err = rt.fetch(ctx, r, method, path, rawQuery, body)
		if err != nil {
			return false
		}
		if status != http.StatusMisdirectedRequest {
			return true
		}
		r.misroutes.Add(1)
		if mis != nil {
			wire.PutBuffer(mis)
		}
		mis = buf
		return false
	})
	switch {
	case answered:
		if mis != nil {
			wire.PutBuffer(mis)
		}
		return status, buf, nil
	case mis != nil:
		return http.StatusMisdirectedRequest, mis, nil
	}
	return 0, nil, errUnreachable
}

// routeToOwner forwards the request down the given preference chain and
// relays the first answer verbatim.
func (rt *Router) routeToOwner(w http.ResponseWriter, req *http.Request, chain []*replica, body []byte) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opRoute].Observe(time.Since(start), reqErr) }()
	status, buf, err := rt.ownerFetch(req.Context(), chain, req.Method, req.URL.Path, req.URL.RawQuery, body)
	if err != nil {
		reqErr = err
		http.Error(w, "router: no replica reachable for key", http.StatusBadGateway)
		return
	}
	if status == http.StatusMisdirectedRequest {
		reqErr = fmt.Errorf("all candidates misrouted")
	}
	relayBytes(w, status, buf.B)
	wire.PutBuffer(buf)
}

// relayBytes writes an already-read answer to the client. Write copies
// the bytes before it returns, so a pooled body can be released after.
func relayBytes(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	if status == http.StatusOK {
		h["Content-Type"] = jsonContentType
	} else {
		h["Content-Type"] = textContentType
	}
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(status)
	w.Write(body)
}

// relay streams a backend response to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// proxyFreshest relays to the replica serving the newest generation,
// preferring healthy ones and failing over down the freshness order.
func (rt *Router) proxyFreshest(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opProxy].Observe(time.Since(start), reqErr) }()
	order := append([]*replica(nil), rt.replicas...)
	sort.SliceStable(order, func(i, j int) bool {
		hi, hj := order[i].healthy.Load(), order[j].healthy.Load()
		if hi != hj {
			return hi
		}
		return order[i].generation.Load() > order[j].generation.Load()
	})
	for _, r := range order {
		resp, err := rt.attempt(req.Context(), r, req.Method, req.URL.Path, req.URL.RawQuery, nil)
		if err != nil {
			continue
		}
		relay(w, resp)
		return
	}
	reqErr = fmt.Errorf("no replica reachable")
	http.Error(w, "router: no replica reachable", http.StatusBadGateway)
}

// gathered is one replica's scatter response, its body in a pooled
// buffer.
type gathered struct {
	r      *replica
	status int
	buf    *wire.Buffer
}

func release(results []gathered) {
	for _, g := range results {
		wire.PutBuffer(g.buf)
	}
}

// scatter fans the request out to the healthy replicas (all of them when
// none are marked healthy — a cold or fully-degraded fleet must still
// try) and gathers whatever answers; the caller releases the results.
// Transport failures mark the replica unhealthy and drop out; the gather
// proceeds with the rest — losing a replica mid-scatter degrades
// redundancy, not availability.
func (rt *Router) scatter(ctx context.Context, method, path, rawQuery string) []gathered {
	targets := make([]*replica, 0, len(rt.replicas))
	for _, r := range rt.replicas {
		if r.healthy.Load() {
			targets = append(targets, r)
		}
	}
	if len(targets) == 0 {
		targets = rt.replicas
	}
	results := make([]gathered, len(targets))
	ask := func(i int) {
		status, buf, err := rt.fetch(ctx, targets[i], method, path, rawQuery, nil)
		if err == nil {
			results[i] = gathered{r: targets[i], status: status, buf: buf}
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(targets); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ask(i)
		}(i)
	}
	ask(0)
	wg.Wait()
	out := results[:0]
	for _, g := range results {
		if g.r != nil {
			out = append(out, g)
		}
	}
	return out
}

// answer is a finished reply: a status and a body no pool owns, so
// every request of a shared flight can write it at its own pace. A nil
// err with a non-200 status is a backend's own verdict being relayed.
type answer struct {
	status int
	body   []byte
	err    error
}

// flight is one in-flight shared scatter: followers block on done.
type flight struct {
	done chan struct{}
	ans  answer
}

// shared runs compute behind a singleflight: concurrent requests for the
// same method, path and query string share one fleet fan-out — and one
// merge — instead of multiplying backend load. Under a thundering herd
// of identical rank queries the fleet sees one request per replica, not
// one per client. Scatter answers depend only on the query and the
// replicas' published generation, so every caller on the flight would
// have computed the same answer anyway; the leader detaches from its own
// request's cancellation, so a leader whose client hangs up still
// completes the flight for its followers. A follower whose own context
// dies stops waiting and reports ok=false.
func (rt *Router) shared(req *http.Request, compute func(ctx context.Context) answer) (ans answer, ok bool) {
	key := req.Method + " " + req.URL.Path + "?" + req.URL.RawQuery
	rt.sfMu.Lock()
	if f, ok := rt.sfCalls[key]; ok {
		rt.sfMu.Unlock()
		rt.sharedScatters.Add(1)
		select {
		case <-f.done:
			return f.ans, true
		case <-req.Context().Done():
			return answer{}, false
		}
	}
	f := &flight{done: make(chan struct{})}
	rt.sfCalls[key] = f
	rt.sfMu.Unlock()
	f.ans = compute(context.WithoutCancel(req.Context()))
	rt.sfMu.Lock()
	delete(rt.sfCalls, key)
	rt.sfMu.Unlock()
	close(f.done)
	return f.ans, true
}

// serveShared answers a scatter-gather request from its shared flight.
func (rt *Router) serveShared(w http.ResponseWriter, req *http.Request, compute func(ctx context.Context) answer) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opScatter].Observe(time.Since(start), reqErr) }()
	ans, ok := rt.shared(req, compute)
	if !ok {
		ans = degraded(nil)
	}
	reqErr = ans.err
	relayBytes(w, ans.status, ans.body)
}

// degraded is the most useful non-success a gather produced: the first
// HTTP error any replica returned (they agree on semantic errors like a
// bad word id), else 502.
func degraded(results []gathered) answer {
	for _, g := range results {
		if g.status != http.StatusOK {
			return answer{status: g.status, body: bytes.Clone(g.buf.B)}
		}
	}
	return answer{
		status: http.StatusBadGateway,
		body:   []byte("router: no replica answered the scatter\n"),
		err:    fmt.Errorf("no replica answered"),
	}
}

// encoded is the 200 answer carrying v.
func encoded(v interface{ AppendWire([]byte) ([]byte, error) }) answer {
	body, err := v.AppendWire(make([]byte, 0, 1024))
	if err != nil {
		return answer{status: http.StatusInternalServerError, body: []byte(err.Error() + "\n"), err: err}
	}
	return answer{status: http.StatusOK, body: append(body, '\n')}
}

func (rt *Router) rankHandler(w http.ResponseWriter, req *http.Request) {
	rt.serveShared(w, req, func(ctx context.Context) answer {
		results := rt.scatter(ctx, req.Method, req.URL.Path, req.URL.RawQuery)
		defer release(results)
		decoded := make([]serve.RankResult, len(results))
		answers := make([]*serve.RankResult, 0, len(results))
		infos := make([]*shard.Info, 0, len(results))
		for i, g := range results {
			res := &decoded[i]
			if g.status != http.StatusOK || res.DecodeWire(g.buf.B) != nil {
				continue
			}
			g.r.generation.Store(res.Generation)
			answers = append(answers, res)
			infos = append(infos, g.r.owned())
		}
		merged, partial := mergeRankSharded(answers, infos, intParam(req.URL.Query(), "k", 10))
		if merged == nil {
			return degraded(results)
		}
		if partial {
			rt.partialRanks.Add(1)
		}
		return encoded(merged)
	})
}

// mergeRankSharded merges rank answers, infos[i] being the range the
// replica behind answers[i] owns. Entry lists and scores are identical
// across shards (ranking reads only global sections), but each shard's
// Members counts only its own user range — the fleet-wide count is their
// sum over one answer per shard index, whichever of the shard's replicas
// gave it. Only answers from replicas of the largest shard Count take
// part, so on a fleet mixing full and sharded replicas the full ones'
// answers are ignored. The merge uses the newest generation at which
// every shard index answered. With no such generation it uses the
// newest generation, sums over the shard indices that did answer, and
// reports partial — a Members count that is short, and says so. Returns
// nil when no answer is usable.
func mergeRankSharded(answers []*serve.RankResult, infos []*shard.Info, k int) (merged *serve.RankResult, partial bool) {
	count := 0
	for _, in := range infos {
		count = max(count, in.Count)
	}
	usable := func(i int) bool {
		in := infos[i]
		return in.Count == count && in.Index >= 0 && in.Index < count
	}
	// byShard[i] is shard i's representative answer at one generation;
	// fill reports how many shard indices that generation has.
	byShard := make([]*serve.RankResult, count)
	fill := func(gen uint64) int {
		clear(byShard)
		covered := 0
		for i, a := range answers {
			if in := infos[i]; usable(i) && a.Generation == gen && byShard[in.Index] == nil {
				byShard[in.Index] = a
				covered++
			}
		}
		return covered
	}
	var best, newest uint64
	found := false
	for i, a := range answers {
		if !usable(i) {
			continue
		}
		newest = max(newest, a.Generation)
		if (!found || a.Generation > best) && fill(a.Generation) == count {
			best, found = a.Generation, true
		}
	}
	if !found {
		best, partial = newest, true
	}
	fill(best)
	var rep *serve.RankResult
	for _, a := range byShard {
		if a != nil {
			rep = a
			break
		}
	}
	if rep == nil {
		return nil, false
	}
	n := len(rep.Entries)
	if k > 0 && n > k {
		n = k
	}
	merged = &serve.RankResult{Generation: best}
	if n > 0 {
		merged.Entries = make([]serve.RankEntry, n)
	}
	for i := range merged.Entries {
		e := &merged.Entries[i]
		*e = rep.Entries[i]
		e.Members = 0
		for _, a := range byShard {
			if a != nil {
				e.Members += membersOf(a, i, e.Community)
			}
		}
	}
	return merged, partial
}

// membersOf is the member count answer a reports for community c, which
// sits at position i when the shards list communities in the same order.
func membersOf(a *serve.RankResult, i, c int) int {
	if i < len(a.Entries) && a.Entries[i].Community == c {
		return a.Entries[i].Members
	}
	for _, e := range a.Entries {
		if e.Community == c {
			return e.Members
		}
	}
	return 0
}

// maxGenerationTries bounds how often a request that combines answers
// of several replicas starts over because a rollout put them on
// different generations.
const maxGenerationTries = 3

// diffusionHandler scores a diffusion query on the owner of u. When that
// owner also holds v the query forwards to u's owner chain unchanged
// (both rows local — the exact single-node computation); on a fully
// replicated fleet that is every pair. Otherwise v's membership row is
// fetched from its owning replica (/api/pirow) and POSTed, as the text
// its owner wrote, to u's owner; a generation mismatch between the row
// and the scoring replica — a rollout racing the query — retries rather
// than mix rows from two generations. Either way the scorer's reply is
// relayed verbatim. The row-carrying POST is a router→replica hop only:
// clients GET.
func (rt *Router) diffusionHandler(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodGet {
		http.Error(w, "GET a diffusion query", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opScatter].Observe(time.Since(start), reqErr) }()
	unreachable := func(err error) {
		reqErr = err
		http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
	}
	q := req.URL.Query()
	u, err1 := strconv.Atoi(q.Get("u"))
	v, err2 := strconv.Atoi(q.Get("v"))
	z, err3 := strconv.Atoi(q.Get("topic"))
	if err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "u, v and topic are required integers", http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	chain := rt.userChain(int64(u))
	if in := chain[0].owned(); in.Owns(u) && in.Owns(v) {
		status, buf, err := rt.ownerFetch(ctx, chain, http.MethodGet, req.URL.Path, req.URL.RawQuery, nil)
		if err != nil {
			unreachable(err)
			return
		}
		relayBytes(w, status, buf.B)
		wire.PutBuffer(buf)
		return
	}
	bucket := intParam(q, "bucket", -1)
	for try := 0; try < maxGenerationTries; try++ {
		vrow, err := rt.fetchPiRow(ctx, int32(v))
		if err != nil {
			unreachable(err)
			return
		}
		body := serve.AppendDiffusionRowsRequest(make([]byte, 0, len(vrow.text)+96), u, v, z, bucket, vrow.text)
		rowGen := vrow.gen
		vrow.release()
		status, buf, err := rt.ownerFetch(ctx, chain, http.MethodPost, "/api/diffusion", "", body)
		if err != nil {
			unreachable(err)
			return
		}
		var res serve.DiffusionResult
		if status == http.StatusOK {
			if err := res.DecodeWire(buf.B); err != nil {
				wire.PutBuffer(buf)
				unreachable(err)
				return
			}
		}
		if status != http.StatusOK || res.Generation == rowGen {
			relayBytes(w, status, buf.B)
			wire.PutBuffer(buf)
			return
		}
		// Generations diverged between the row fetch and the scoring
		// replica; refetch against the (presumably settled) fleet.
		wire.PutBuffer(buf)
	}
	unreachable(fmt.Errorf("generation mismatch across shards persisted after retries"))
}

// piRow is one hydrated membership row: the JSON text its owner wrote
// and the generation it was read from. The text aliases buf, the pooled
// reply it arrived in, until release.
type piRow struct {
	gen  uint64
	text []byte
	buf  *wire.Buffer
}

func (p *piRow) release() {
	if p.buf != nil {
		wire.PutBuffer(p.buf)
	}
	*p = piRow{}
}

// fetchPiRow fetches one user's membership row from the user's owning
// replica chain.
func (rt *Router) fetchPiRow(ctx context.Context, user int32) (piRow, error) {
	status, buf, err := rt.ownerFetch(ctx, rt.userChain(int64(user)), http.MethodGet, "/api/pirow", "id="+strconv.Itoa(int(user)), nil)
	if err != nil {
		return piRow{}, err
	}
	if status != http.StatusOK {
		err := fmt.Errorf("pirow for user %d answered status %d: %s", user, status, bytes.TrimSpace(buf.B))
		wire.PutBuffer(buf)
		return piRow{}, err
	}
	gen, text, err := serve.DecodePiRowRaw(buf.B)
	if err != nil {
		wire.PutBuffer(buf)
		return piRow{}, err
	}
	return piRow{gen: gen, text: text, buf: buf}, nil
}

// foldInHandler routes a fold-in. Fold-in requests carry no user id (the
// user is by definition unseen), so the routing key is the caller's
// ?user= hint when given, else the request seed — deterministic either
// way, so retries of the same request land on the same replica's warm
// cache. Only the friends and the seed are read off the body; the
// documents are forwarded as the client wrote them.
func (rt *Router) foldInHandler(w http.ResponseWriter, req *http.Request) {
	if req.Method != http.MethodPost {
		http.Error(w, "POST a FoldInRequest", http.StatusMethodNotAllowed)
		return
	}
	// Not a pooled buffer: the body goes out again as a backend request.
	body, err := io.ReadAll(http.MaxBytesReader(w, req.Body, 16<<20))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	env, err := serve.ScanFoldIn(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	key := env.Seed
	if u := req.URL.Query().Get("user"); u != "" {
		id, err := strconv.ParseInt(u, 10, 64)
		if err != nil {
			http.Error(w, "bad user routing hint", http.StatusBadRequest)
			return
		}
		key = uint64(id)
	}
	chain := rt.owners(key)
	if len(env.Friends) == 0 {
		rt.routeToOwner(w, req, chain, env.Body())
		return
	}
	if len(env.Friends) > serve.MaxFoldInFriends {
		// What any replica would answer, before fetching a row per friend.
		http.Error(w, fmt.Sprintf("serve: fold-in request has %d friends (limit %d)", len(env.Friends), serve.MaxFoldInFriends), http.StatusBadRequest)
		return
	}
	rt.foldInHydrated(w, req, chain, &env)
}

// foldInHydrated serves a fold-in with friends, whose membership rows
// the target replica may not all own. The target replica is chosen
// first, then the rows of the friends it does NOT own are fetched from
// their owners and added to the request as the text their owners wrote;
// the backend reads its own rows for the rest, so the answer is
// bit-identical to a full node whichever replica serves it (a replica
// that owns every friend — any replica of a fully replicated fleet — is
// sent the client's request unchanged). A candidate that fails over or
// disowns the request (421) hands on to the next one, which re-hydrates
// for its own range, reusing rows already fetched. The rows travel with
// their generation: rows that straddle generations among themselves, or
// that the scoring replica refuses (409: it serves another one), are
// dropped and fetched again, maxGenerationTries times in all — a
// fold-in never mixes generations.
func (rt *Router) foldInHydrated(w http.ResponseWriter, req *http.Request, chain []*replica, env *serve.FoldInEnvelope) {
	start := time.Now()
	var reqErr error
	defer func() { rt.lat[opRoute].Observe(time.Since(start), reqErr) }()
	giveUp := func(err error) bool {
		reqErr = err
		http.Error(w, "router: "+err.Error(), http.StatusBadGateway)
		return true
	}
	ctx := req.Context()
	rows := make([]piRow, len(env.Friends)) // by position in Friends; no text = not fetched
	drop := func() {
		for i := range rows {
			rows[i].release()
		}
	}
	defer drop()
	tries := 0
	var mis *wire.Buffer
	settled := tiered(chain, func(r *replica) bool {
		for {
			users, texts, gen, err := rt.hydrate(ctx, r, env.Friends, rows)
			// Rows that straddle generations are the conflict the scoring
			// replica would report, seen before asking it.
			status, buf := http.StatusConflict, (*wire.Buffer)(nil)
			switch {
			case err == nil:
				body := env.Body()
				if len(users) > 0 {
					body = env.WithRows(users, texts, gen)
				}
				if status, buf, err = rt.fetch(ctx, r, http.MethodPost, req.URL.Path, req.URL.RawQuery, body); err != nil {
					return false
				}
			case !errors.Is(err, errStraddle):
				return giveUp(err)
			}
			switch status {
			case http.StatusConflict:
				if buf != nil {
					wire.PutBuffer(buf)
				}
				drop()
				if tries++; tries == maxGenerationTries {
					return giveUp(errStraddle)
				}
			case http.StatusMisdirectedRequest:
				r.misroutes.Add(1)
				if mis != nil {
					wire.PutBuffer(mis)
				}
				mis = buf
				return false
			default:
				relayBytes(w, status, buf.B)
				wire.PutBuffer(buf)
				return true
			}
		}
	})
	switch {
	case settled:
	case mis != nil:
		// Every candidate disowned the request: relay the misroute so the
		// client sees why instead of a generic 502.
		reqErr = fmt.Errorf("all candidates misrouted")
		relayBytes(w, http.StatusMisdirectedRequest, mis.B)
	default:
		reqErr = errUnreachable
		http.Error(w, "router: no replica reachable for key", http.StatusBadGateway)
	}
	if mis != nil {
		wire.PutBuffer(mis)
	}
}

var errStraddle = errors.New("friend rows kept straddling generations")

// hydrate returns what a fold-in sent to r must carry: the friends r
// does not own, the text of their rows and the one generation those are
// from (errStraddle if they are from several). Rows not yet in rows —
// which is indexed like friends — are fetched into it.
func (rt *Router) hydrate(ctx context.Context, r *replica, friends []int32, rows []piRow) (users []int32, texts [][]byte, gen uint64, err error) {
	in := r.owned()
	for i, friend := range friends {
		if in.Owns(int(friend)) {
			continue
		}
		if rows[i].text == nil {
			if rows[i], err = rt.fetchPiRow(ctx, friend); err != nil {
				return nil, nil, 0, fmt.Errorf("hydrating friend %d: %w", friend, err)
			}
		}
		if len(users) > 0 && rows[i].gen != gen {
			return nil, nil, 0, errStraddle
		}
		gen = rows[i].gen
		users = append(users, friend)
		texts = append(texts, rows[i].text)
	}
	return users, texts, gen, nil
}

func (rt *Router) getJSON(r *replica, path string, v any) error {
	resp, err := rt.opts.Client.Get(r.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("%s%s answered status %d", r.base, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

func intParam(q url.Values, name string, def int) int {
	if s := q.Get(name); s != "" {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
