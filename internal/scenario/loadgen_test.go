package scenario

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hist"
	"repro/internal/rng"
	"repro/internal/serve"
)

func loadSpace() QuerySpace {
	return QuerySpace{Users: 50, Words: 200, Communities: 6, Topics: 8, Buckets: 24}
}

// countingTarget records every request it executes.
type countingTarget struct {
	mu     sync.Mutex
	perOp  [numOps]int
	failOn OpKind
	fail   bool
}

func (c *countingTarget) Do(req *Request) error {
	c.mu.Lock()
	c.perOp[req.Op]++
	c.mu.Unlock()
	if c.fail && req.Op == c.failOn {
		return errors.New("injected failure")
	}
	return nil
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("rank=4, membership=2,foldin=1")
	if err != nil {
		t.Fatal(err)
	}
	if m[OpRank] != 4 || m[OpMembership] != 2 || m[OpDiffusion] != 0 || m[OpFoldIn] != 1 {
		t.Fatalf("parsed mix %v", m)
	}
	for _, bad := range []string{"", "rank", "rank=x", "frobnicate=1", "rank=-1", "rank=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

func TestClosedLoopCountsAndMix(t *testing.T) {
	target := &countingTarget{}
	rep, err := RunLoad(target, LoadOptions{
		Space: loadSpace(), Requests: 2000, Concurrency: 4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 2000 {
		t.Fatalf("report counts %d requests, want 2000", rep.Requests)
	}
	if rep.Errors != 0 {
		t.Fatalf("unexpected errors: %d", rep.Errors)
	}
	total := 0
	for _, n := range target.perOp {
		total += n
	}
	if total != 2000 {
		t.Fatalf("target executed %d requests, want 2000", total)
	}
	// The default mix is 4:3:2:1 reads with no writes — every weighted op
	// must appear (rank most often), ingest not at all.
	def := DefaultMix()
	for k := OpKind(0); k < numOps; k++ {
		if def[k] > 0 && target.perOp[k] == 0 {
			t.Errorf("op %v never generated", k)
		}
		if def[k] == 0 && target.perOp[k] != 0 {
			t.Errorf("op %v generated %d times despite zero weight", k, target.perOp[k])
		}
	}
	if target.perOp[OpRank] <= target.perOp[OpFoldIn] {
		t.Errorf("mix not respected: rank %d <= foldin %d", target.perOp[OpRank], target.perOp[OpFoldIn])
	}
	if rep.QPS <= 0 {
		t.Fatalf("QPS = %v", rep.QPS)
	}
	for name, s := range rep.Ops {
		if s.P50 > s.P95 || s.P95 > s.P99 || s.P99 > s.Max {
			t.Errorf("%s percentiles not monotone: %+v", name, s)
		}
	}
}

func TestErrorsCounted(t *testing.T) {
	target := &countingTarget{fail: true, failOn: OpMembership}
	rep, err := RunLoad(target, LoadOptions{
		Space: loadSpace(), Requests: 500, Concurrency: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors == 0 || rep.Errors != rep.Ops["membership"].Errors {
		t.Fatalf("errors not attributed: total %d, membership %d", rep.Errors, rep.Ops["membership"].Errors)
	}
	if rep.Ops["rank"].Errors != 0 {
		t.Fatalf("rank charged with %d foreign errors", rep.Ops["rank"].Errors)
	}
}

func TestOpenLoopSchedulesAllArrivals(t *testing.T) {
	target := &countingTarget{}
	rep, err := RunLoad(target, LoadOptions{
		Space: loadSpace(), Requests: 300, Concurrency: 4, Rate: 20000, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != 300 {
		t.Fatalf("open loop completed %d requests, want 300", rep.Requests)
	}
}

func TestGenRequestDeterministicAndInRange(t *testing.T) {
	o, err := LoadOptions{Space: loadSpace(), Requests: 1}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	a, b := rng.New(42), rng.New(42)
	for i := 0; i < 500; i++ {
		ra, rb := genRequest(a, &o), genRequest(b, &o)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("request %d not deterministic", i)
		}
		s := o.Space
		switch ra.Op {
		case OpRank:
			for _, w := range ra.Words {
				if w < 0 || int(w) >= s.Words {
					t.Fatalf("rank word %d out of range", w)
				}
			}
		case OpMembership:
			if ra.U < 0 || ra.U >= s.Users {
				t.Fatalf("membership user %d out of range", ra.U)
			}
		case OpDiffusion:
			if ra.U == ra.V || ra.V < 0 || ra.V >= s.Users || ra.Z < 0 || ra.Z >= s.Topics {
				t.Fatalf("diffusion request out of range: %+v", ra)
			}
		case OpFoldIn:
			if len(ra.FoldIn.Docs) != o.FoldInDocs {
				t.Fatalf("foldin has %d docs", len(ra.FoldIn.Docs))
			}
			if len(ra.FoldIn.Friends) != foldInFriends {
				t.Fatalf("foldin has %d friends", len(ra.FoldIn.Friends))
			}
			for _, f := range ra.FoldIn.Friends {
				if f < 0 || int(f) >= s.Users {
					t.Fatalf("foldin friend %d out of range", f)
				}
			}
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h hist.Hist
	// 100 observations: 1ms ... 100ms.
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i)*time.Millisecond, nil)
	}
	check := func(q float64, want time.Duration) {
		got := h.Quantile(q)
		// Log-bucketed: accept the histogram's ~9% resolution.
		lo, hi := time.Duration(float64(want)*0.85), time.Duration(float64(want)*1.15)
		if got < lo || got > hi {
			t.Errorf("Quantile(%.2f) = %v, want within 15%% of %v", q, got, want)
		}
	}
	check(0.50, 50*time.Millisecond)
	check(0.95, 95*time.Millisecond)
	check(0.99, 99*time.Millisecond)
	if h.Quantile(1) > time.Duration(h.MaxNS) {
		t.Error("quantile exceeds tracked maximum")
	}
	var empty hist.Hist
	if empty.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

func TestBadLoadOptions(t *testing.T) {
	if _, err := RunLoad(&countingTarget{}, LoadOptions{Space: loadSpace()}); err == nil {
		t.Fatal("unbounded run accepted (no Requests, no Duration)")
	}
	if _, err := RunLoad(&countingTarget{}, LoadOptions{Requests: 10}); err == nil {
		t.Fatal("empty query space accepted")
	}
}

// TestLoadAgainstEngineAndHTTP drives the same small mixed workload
// through both targets — the in-process engine and a live HTTP server on
// the same engine — asserting zero errors on each.
func TestLoadAgainstEngineAndHTTP(t *testing.T) {
	m := serve.SyntheticModel(60, 6, 8, 300, 17)
	e := serve.New(m, nil, serve.Options{})
	defer e.Close()
	mix := DefaultMix()
	mix[OpQuality] = 1
	mix[OpMetrics] = 1
	opts := LoadOptions{
		Mix:   mix,
		Space: SpaceFromModel(m), Requests: 400, Concurrency: 4, Seed: 21,
		FoldInSweeps: 5,
	}

	rep, err := RunLoad(EngineTarget{Engine: e}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("engine target saw %d errors: %+v", rep.Errors, rep.Ops)
	}

	srv := httptest.NewServer(serve.APIHandler(e, nil))
	defer srv.Close()
	rep, err = RunLoad(HTTPTarget{Base: srv.URL, Client: srv.Client()}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("HTTP target saw %d errors: %+v", rep.Errors, rep.Ops)
	}
	if rep.Requests != 400 {
		t.Fatalf("HTTP target completed %d requests", rep.Requests)
	}
}

// A failing endpoint often truncates its error body; the target must
// report the HTTP status, not the body-drain hiccup that the truncation
// causes on the client side.
func TestHTTPTargetReportsStatusBeforeDrainError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promise a long body, deliver a stub: the client's drain hits an
		// unexpected EOF after reading the 503 status.
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("overloaded"))
	}))
	defer srv.Close()
	err := HTTPTarget{Base: srv.URL, Client: srv.Client()}.Do(&Request{Op: OpMembership, U: 1, K: 3})
	if err == nil {
		t.Fatal("truncated 503 reported as success")
	}
	if !strings.Contains(err.Error(), "503") {
		t.Fatalf("error %q does not name the 503 status", err)
	}
}
