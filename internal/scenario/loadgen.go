package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"repro/internal/hist"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/stream"
)

// OpKind enumerates the query kinds a load mix is composed of.
type OpKind int

const (
	OpRank OpKind = iota
	OpMembership
	OpDiffusion
	OpFoldIn
	OpIngest
	OpQuality
	OpMetrics
	numOps
)

var opNames = [numOps]string{"rank", "membership", "diffusion", "foldin", "ingest", "quality", "metrics"}

func (k OpKind) String() string { return opNames[k] }

// Mix weights the query kinds; weights are relative, not normalized.
type Mix [numOps]float64

// DefaultMix is a read-heavy service profile: mostly ranking and
// membership lookups, some diffusion probes, a trickle of fold-ins, no
// writes (add "ingest=N" to the mix for read-under-write runs; ingest
// targets need a stream updater or a cpd-serve started with -ingest).
// The observability endpoints join on request ("quality=N,metrics=N"):
// they model a dashboard or Prometheus scraper riding the same server,
// latency-counted like every other op.
func DefaultMix() Mix { return Mix{OpRank: 4, OpMembership: 3, OpDiffusion: 2, OpFoldIn: 1} }

// ParseMix parses "rank=4,membership=3,diffusion=2,foldin=1". Omitted ops
// get weight 0; at least one weight must be positive.
func ParseMix(s string) (Mix, error) {
	var m Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return m, fmt.Errorf("scenario: mix entry %q is not name=weight", part)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil || w < 0 {
			return m, fmt.Errorf("scenario: mix entry %q has a bad weight", part)
		}
		found := false
		for k := OpKind(0); k < numOps; k++ {
			if opNames[k] == strings.TrimSpace(name) {
				m[k] = w
				found = true
				break
			}
		}
		if !found {
			return m, fmt.Errorf("scenario: unknown op %q (have %v)", name, opNames)
		}
	}
	total := 0.0
	for _, w := range m {
		total += w
	}
	if total <= 0 {
		return m, fmt.Errorf("scenario: mix %q has no positive weight", s)
	}
	return m, nil
}

// QuerySpace is the id space random queries draw from.
type QuerySpace struct {
	Users, Words, Communities, Topics, Buckets int
}

// SpaceFromModel derives the query space of a model.
func SpaceFromModel(m *core.Model) QuerySpace {
	return QuerySpace{
		Users: m.NumUsers, Words: m.NumWords,
		Communities: m.Cfg.NumCommunities, Topics: m.Cfg.NumTopics,
		Buckets: m.NumBuckets,
	}
}

// Request is one generated query, ready for any Target.
type Request struct {
	Op     OpKind
	Words  []int32 // rank
	K      int     // rank
	U, V   int     // membership / diffusion
	Z, B   int     // diffusion
	FoldIn *serve.FoldInRequest
	Events []stream.Event // ingest
}

// Target executes requests — either in-process against a serve.Engine or
// over HTTP against a live cpd-serve endpoint.
type Target interface {
	Do(req *Request) error
}

// IngestStatusser is the optional Target extension for write mixes: a
// target that can report the stream updater's status lets the load
// report include publish-lag percentiles (event append → servable
// generation), not just ingest op counts. Both built-in targets
// implement it; EngineTarget needs its Updater set.
type IngestStatusser interface {
	IngestStatus() (*stream.Status, error)
}

// EngineTarget drives a serve.Engine directly (no network, no JSON):
// the ceiling the HTTP path is compared against. Snapshot selects one of
// the engine's named snapshots (empty = the default). Updater, when set,
// receives the mix's ingest ops (without one, ingest requests error).
type EngineTarget struct {
	Engine   *serve.Engine
	Snapshot string
	Updater  *stream.Updater
}

// Do implements Target.
func (t EngineTarget) Do(req *Request) error {
	name := t.Snapshot
	if name == "" {
		name = serve.DefaultSnapshot
	}
	var err error
	switch req.Op {
	case OpRank:
		_, err = t.Engine.RankIn(name, req.Words, req.K)
	case OpMembership:
		_, err = t.Engine.MembershipIn(name, req.U, req.K)
	case OpDiffusion:
		_, err = t.Engine.DiffusionIn(name, req.U, req.V, req.Z, req.B)
	case OpFoldIn:
		_, err = t.Engine.FoldInNamed(name, req.FoldIn)
	case OpIngest:
		if t.Updater == nil {
			return fmt.Errorf("scenario: ingest op without an Updater on the EngineTarget")
		}
		_, err = t.Updater.Ingest(req.Events)
	case OpQuality:
		_, err = t.Engine.QualityIn(name)
	case OpMetrics:
		// The serialization work is the cost being measured; the bytes
		// themselves are a scrape's business, not the load generator's.
		t.Engine.WriteMetrics(io.Discard)
	}
	return err
}

// IngestStatus implements IngestStatusser from the updater's status
// cache.
func (t EngineTarget) IngestStatus() (*stream.Status, error) {
	if t.Updater == nil {
		return nil, fmt.Errorf("scenario: no Updater on the EngineTarget")
	}
	st := t.Updater.Status()
	return &st, nil
}

// HTTPTarget drives a live serving endpoint — cpd-serve, which serves
// serve.APIHandler, or a cpd-router front — through the same JSON API
// real clients use.
type HTTPTarget struct {
	// Base is the endpoint root, e.g. "http://localhost:8080".
	Base string
	// Snapshot, when non-empty, routes every query to that named snapshot
	// (appended as the ?snapshot= parameter).
	Snapshot string
	// Client defaults to loadClient, a dedicated client with enough idle
	// connections per host for any sane -concurrency (so percentiles
	// measure the server, not TCP handshake churn) and a request timeout
	// (so one hung endpoint cannot stall a bounded run forever).
	// Override for custom timeouts/transports.
	Client *http.Client
}

// loadClient is HTTPTarget's default client; see the Client field doc.
var loadClient = &http.Client{
	Timeout: 30 * time.Second,
	Transport: &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
	},
}

// Do implements Target.
func (t HTTPTarget) Do(req *Request) error {
	client := t.Client
	if client == nil {
		client = loadClient
	}
	snap := ""
	if t.Snapshot != "" {
		snap = "&snapshot=" + url.QueryEscape(t.Snapshot)
	}
	var resp *http.Response
	var err error
	switch req.Op {
	case OpRank:
		ids := make([]string, len(req.Words))
		for i, w := range req.Words {
			ids[i] = strconv.Itoa(int(w))
		}
		resp, err = client.Get(fmt.Sprintf("%s/api/rank?w=%s&k=%d%s", t.Base, strings.Join(ids, ","), req.K, snap))
	case OpMembership:
		resp, err = client.Get(fmt.Sprintf("%s/api/user?id=%d&k=%d%s", t.Base, req.U, req.K, snap))
	case OpDiffusion:
		resp, err = client.Get(fmt.Sprintf("%s/api/diffusion?u=%d&v=%d&topic=%d&bucket=%d%s", t.Base, req.U, req.V, req.Z, req.B, snap))
	case OpFoldIn:
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(req.FoldIn); err != nil {
			return err
		}
		foldURL := t.Base + "/api/foldin"
		if snap != "" {
			foldURL += "?" + snap[1:]
		}
		resp, err = client.Post(foldURL, "application/json", &body)
	case OpIngest:
		var body bytes.Buffer
		if err := json.NewEncoder(&body).Encode(req.Events); err != nil {
			return err
		}
		resp, err = client.Post(t.Base+"/api/ingest", "application/json", &body)
	case OpQuality:
		qualityURL := t.Base + "/api/quality"
		if snap != "" {
			qualityURL += "?" + snap[1:]
		}
		resp, err = client.Get(qualityURL)
	case OpMetrics:
		resp, err = client.Get(t.Base + "/metrics")
	}
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	// Drain for connection reuse, but report the status first: an error
	// response often carries a short (or truncated) body, and surfacing
	// the drain hiccup instead of the 503 behind it buries the signal.
	_, derr := io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scenario: %s answered status %d", req.Op, resp.StatusCode)
	}
	if derr != nil {
		return derr
	}
	return nil
}

// IngestStatus implements IngestStatusser over GET /api/ingest/status.
func (t HTTPTarget) IngestStatus() (*stream.Status, error) {
	client := t.Client
	if client == nil {
		client = loadClient
	}
	resp, err := client.Get(t.Base + "/api/ingest/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scenario: ingest status answered %d", resp.StatusCode)
	}
	var st stream.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// LoadOptions configures one load-generation run.
type LoadOptions struct {
	Mix   Mix
	Space QuerySpace

	// Concurrency is the closed-loop worker count, and in open-loop mode
	// the maximum in-flight requests (default 8).
	Concurrency int
	// Requests bounds the run by count; 0 means run until Duration.
	Requests int
	// Duration bounds the run by time when Requests is 0.
	Duration time.Duration
	// Rate > 0 switches to open-loop mode: requests arrive on a fixed
	// schedule of Rate per second and latency is measured from the
	// *scheduled* arrival (queue wait included), so a saturated server
	// cannot hide behind coordinated omission. Rate == 0 is closed-loop:
	// Concurrency workers each issue their next request as soon as the
	// previous one completes.
	Rate float64
	Seed uint64

	// Query shaping (zero values select the defaults in parentheses).
	RankWords    int // words per rank query (2)
	RankK        int // top-k communities requested (10)
	FoldInDocs   int // documents per fold-in request (2)
	FoldInDocLen int // words per fold-in document (8)
	FoldInSweeps int // Gibbs sweeps per fold-in (10)
}

func (o LoadOptions) withDefaults() (LoadOptions, error) {
	zero := Mix{}
	if o.Mix == zero {
		o.Mix = DefaultMix()
	}
	if o.Space.Users <= 0 || o.Space.Words <= 0 || o.Space.Communities <= 0 || o.Space.Topics <= 0 {
		return o, fmt.Errorf("scenario: load generation needs a positive QuerySpace, got %+v", o.Space)
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.Requests <= 0 && o.Duration <= 0 {
		return o, fmt.Errorf("scenario: load generation needs Requests or Duration")
	}
	if o.RankWords <= 0 {
		o.RankWords = 2
	}
	if o.RankK <= 0 {
		o.RankK = 10
	}
	if o.FoldInDocs <= 0 {
		o.FoldInDocs = 2
	}
	if o.FoldInDocLen <= 0 {
		o.FoldInDocLen = 8
	}
	if o.FoldInSweeps <= 0 {
		o.FoldInSweeps = 10
	}
	return o, nil
}

const foldInFriends = 3

// genRequest draws one request from the mix and the query space.
func genRequest(r *rng.RNG, o *LoadOptions) *Request {
	req := &Request{Op: OpKind(r.Categorical(o.Mix[:]))}
	s := o.Space
	switch req.Op {
	case OpRank:
		req.Words = make([]int32, o.RankWords)
		for i := range req.Words {
			req.Words[i] = int32(r.Intn(s.Words))
		}
		req.K = o.RankK
	case OpMembership:
		req.U = r.Intn(s.Users)
		req.K = 5
	case OpDiffusion:
		req.U = r.Intn(s.Users)
		req.V = r.Intn(s.Users)
		if req.V == req.U {
			req.V = (req.V + 1) % s.Users
		}
		req.Z = r.Intn(s.Topics)
		req.B = -1
		if s.Buckets > 0 {
			req.B = r.Intn(s.Buckets)
		}
	case OpFoldIn:
		docs := make([][]int32, o.FoldInDocs)
		for i := range docs {
			doc := make([]int32, o.FoldInDocLen)
			for j := range doc {
				doc[j] = int32(r.Intn(s.Words))
			}
			docs[i] = doc
		}
		// Three friends a third of the id space apart: on a sharded fleet
		// at least one of them is owned by another replica, so the router
		// hydrates rows for the request.
		friends := make([]int32, foldInFriends)
		first := r.Intn(s.Users)
		for i := range friends {
			friends[i] = int32((first + i*s.Users/foldInFriends) % s.Users)
		}
		req.FoldIn = &serve.FoldInRequest{Docs: docs, Friends: friends, Seed: r.Uint64(), Sweeps: o.FoldInSweeps}
	case OpIngest:
		// A write-mix op is mostly fresh documents on existing users, with
		// a sprinkle of edges and brand-new users — the churn shape a live
		// service sees. Only base-population ids are drawn, so the batch
		// validates whatever else is in flight.
		switch r.Intn(8) {
		case 0:
			req.Events = []stream.Event{{Type: stream.EvAddUser}}
		case 1:
			u := r.Intn(s.Users)
			v := r.Intn(s.Users)
			if v == u {
				v = (v + 1) % s.Users
			}
			req.Events = []stream.Event{{Type: stream.EvAddEdge, User: int32(u), Target: int32(v)}}
		default:
			doc := make([]int32, o.FoldInDocLen)
			for j := range doc {
				doc[j] = int32(r.Intn(s.Words))
			}
			req.Events = []stream.Event{{Type: stream.EvAddDoc, User: int32(r.Intn(s.Users)), Time: int64(r.Intn(1 << 20)), Words: doc}}
		}
	}
	return req
}

// --- latency accounting -------------------------------------------------

// Latencies accumulate in internal/hist's log-bucketed histogram — the
// same geometry the serving engine's endpoint counters and the streaming
// publisher use, so a load run's percentiles are directly comparable to
// what /api/stats and /metrics report from the server side.

// OpStats is one op kind's latency summary.
type OpStats struct {
	Count  uint64        `json:"count"`
	Errors uint64        `json:"errors"`
	Mean   time.Duration `json:"mean"`
	P50    time.Duration `json:"p50"`
	P95    time.Duration `json:"p95"`
	P99    time.Duration `json:"p99"`
	Max    time.Duration `json:"max"`
}

// Report is a load run's result: throughput plus per-op latency
// percentiles, and — for write mixes against a status-capable target —
// the server-side publish-lag distribution.
type Report struct {
	Elapsed  time.Duration      `json:"elapsed"`
	Requests uint64             `json:"requests"`
	Errors   uint64             `json:"errors"`
	QPS      float64            `json:"qps"`
	Ops      map[string]OpStats `json:"ops"`

	// PublishLag summarizes event append → servable generation time as
	// measured by the updater itself (set when the mix ingests and the
	// target reports ingest status). Unlike the ingest op latency above —
	// which only times the append — this is the freshness an ingested
	// event actually experiences.
	PublishLag           *stream.LatencySummary `json:"publishLag,omitempty"`
	Publishes            uint64                 `json:"publishes,omitempty"`
	IncrementalPublishes uint64                 `json:"incrementalPublishes,omitempty"`
}

// String renders the report as the table cpd-loadgen prints.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "elapsed %v   requests %d (%d errors)   throughput %.1f qps\n",
		r.Elapsed.Round(time.Millisecond), r.Requests, r.Errors, r.QPS)
	fmt.Fprintf(&sb, "%-12s %9s %7s %10s %10s %10s %10s %10s\n",
		"op", "count", "errors", "mean", "p50", "p95", "p99", "max")
	names := make([]string, 0, len(r.Ops))
	for name := range r.Ops {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Ops[name]
		fmt.Fprintf(&sb, "%-12s %9d %7d %10v %10v %10v %10v %10v\n",
			name, s.Count, s.Errors,
			s.Mean.Round(time.Microsecond), s.P50.Round(time.Microsecond),
			s.P95.Round(time.Microsecond), s.P99.Round(time.Microsecond),
			s.Max.Round(time.Microsecond))
	}
	if lag := r.PublishLag; lag != nil {
		fmt.Fprintf(&sb, "publish lag (append→servable): p50 %.1fms  p95 %.1fms  p99 %.1fms  max %.1fms  (%d batches, %d publishes, %d incremental)\n",
			lag.P50Ms, lag.P95Ms, lag.P99Ms, lag.MaxMs, lag.Count, r.Publishes, r.IncrementalPublishes)
	}
	return sb.String()
}

// RunLoad replays a query mix against a target and reports throughput and
// latency. Request sequences are deterministic per (Seed, Concurrency);
// timings of course are not.
func RunLoad(target Target, opts LoadOptions) (*Report, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	var rep *Report
	if o.Rate > 0 {
		rep, err = runOpenLoop(target, &o)
	} else {
		rep, err = runClosedLoop(target, &o)
	}
	if err != nil {
		return nil, err
	}
	// Write mixes also report server-side publish lag when the target can
	// surface it — a failed status fetch just leaves the field unset (the
	// load numbers themselves are complete without it).
	if o.Mix[OpIngest] > 0 {
		if ts, ok := target.(IngestStatusser); ok {
			if st, serr := ts.IngestStatus(); serr == nil && st != nil {
				rep.PublishLag = st.PublishLag
				rep.Publishes = st.Publishes
				rep.IncrementalPublishes = st.IncrementalPublishes
			}
		}
	}
	return rep, nil
}

type workerStats struct {
	hists [numOps]hist.Hist
}

func assemble(workers []workerStats, elapsed time.Duration) *Report {
	var merged [numOps]hist.Hist
	for w := range workers {
		for k := range merged {
			merged[k].Merge(&workers[w].hists[k])
		}
	}
	rep := &Report{Elapsed: elapsed, Ops: make(map[string]OpStats, numOps)}
	for k := OpKind(0); k < numOps; k++ {
		h := &merged[k]
		if h.Count == 0 {
			continue
		}
		rep.Requests += h.Count
		rep.Errors += h.Errs
		rep.Ops[k.String()] = OpStats{
			Count:  h.Count,
			Errors: h.Errs,
			Mean:   h.Mean(),
			P50:    h.Quantile(0.50),
			P95:    h.Quantile(0.95),
			P99:    h.Quantile(0.99),
			Max:    time.Duration(h.MaxNS),
		}
	}
	if elapsed > 0 {
		rep.QPS = float64(rep.Requests) / elapsed.Seconds()
	}
	return rep
}

// runClosedLoop: Concurrency workers, each issuing its next request the
// moment the previous one returns.
func runClosedLoop(target Target, o *LoadOptions) (*Report, error) {
	var issued atomic.Int64
	quota := int64(o.Requests)
	var deadline time.Time
	if o.Requests <= 0 {
		deadline = time.Now().Add(o.Duration)
	}
	workers := make([]workerStats, o.Concurrency)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(o.Seed).Split(uint64(w) + 1)
			ws := &workers[w]
			for {
				if quota > 0 {
					if issued.Add(1) > quota {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				req := genRequest(r, o)
				t0 := time.Now()
				err := target.Do(req)
				ws.hists[req.Op].Observe(time.Since(t0), err)
			}
		}(w)
	}
	wg.Wait()
	return assemble(workers, time.Since(start)), nil
}

// runOpenLoop: a dispatcher emits arrivals on a fixed schedule of Rate
// per second; Concurrency workers drain them. Latency runs from the
// scheduled arrival instant, so backlog wait counts against the server.
func runOpenLoop(target Target, o *LoadOptions) (*Report, error) {
	type job struct {
		req       *Request
		scheduled time.Time
	}
	total := o.Requests
	if total <= 0 {
		total = int(o.Rate * o.Duration.Seconds())
		if total < 1 {
			total = 1
		}
	}
	jobs := make(chan job, 4*o.Concurrency)
	workers := make([]workerStats, o.Concurrency)
	var wg sync.WaitGroup
	for w := 0; w < o.Concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := &workers[w]
			for j := range jobs {
				err := target.Do(j.req)
				ws.hists[j.req.Op].Observe(time.Since(j.scheduled), err)
			}
		}(w)
	}
	r := rng.New(o.Seed)
	interval := time.Duration(float64(time.Second) / o.Rate)
	start := time.Now()
	for i := 0; i < total; i++ {
		scheduled := start.Add(time.Duration(i) * interval)
		if d := time.Until(scheduled); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{req: genRequest(r, o), scheduled: scheduled}
	}
	close(jobs)
	wg.Wait()
	return assemble(workers, time.Since(start)), nil
}
