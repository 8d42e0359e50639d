package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileIsExact(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {0.999, 100}, {1, 100}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 samples = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 3 samples = %v, want 5", got)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{5, "p50"}, {99, "p50"}, {100, "p90"}, {195, "p90"}, {1000, "p99"}, {9999, "p99"}, {10000, "p999"}} {
		if _, got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping children count once", []interval{{110, 150}, {130, 170}}, 40},
		{"disjoint children", []interval{{110, 120}, {180, 190}}, 80},
		{"nested child", []interval{{110, 190}, {120, 130}}, 20},
		{"children clipped to the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"child outside the parent", []interval{{300, 400}}, 100},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestBestOf(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1
	}
	if got := bestOf(xs, false); got != 4 {
		t.Errorf("bestOf(1..200, lower) = %v, want 4 (the 2nd percentile)", got)
	}
	if got := bestOf(xs, true); got != 196 {
		t.Errorf("bestOf(1..200, higher) = %v, want 196", got)
	}
	if lo, hi := betterQuartile(xs, false), betterQuartile(xs, true); lo != 50 || hi != 150 {
		t.Errorf("betterQuartile(1..200) = %v and %v, want 50 and 150", lo, hi)
	}
	if got := bestOf(xs[:20], false); got != 181 { // 200..181: the single best
		t.Errorf("bestOf of 20 segments = %v, want the best one, 181", got)
	}
}

func TestBusyClockFollowsWork(t *testing.T) {
	// Computing advances the clock, however little of the machine the test
	// gets; sleeping does not.
	b0, t0 := busyClock(), time.Now()
	var x uint64 = 1
	for busyClock()-b0 < 20*time.Millisecond {
		for i := 0; i < 100000; i++ {
			x = x*6364136223846793005 + 1
		}
		if time.Since(t0) > 10*time.Second {
			t.Fatalf("10 s of computing advanced the busy clock by %v (x=%d)", busyClock()-b0, x)
		}
	}
	b0 = busyClock()
	time.Sleep(50 * time.Millisecond)
	if idle := busyClock() - b0; idle > 25*time.Millisecond {
		t.Errorf("50 ms asleep advanced the busy clock by %v", idle)
	}
}

func TestStreamsArePureFunctionsOfSeedAndClient(t *testing.T) {
	sp := fullScale.model.space()
	take := func(seed uint64, client int) []*request {
		s := newRequestStream(seed, client, readMix, sp)
		out := make([]*request, 300)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(take(1, 0), take(1, 0)) {
		t.Error("the same (seed, client) gave two different request sequences")
	}
	if reflect.DeepEqual(take(1, 0), take(2, 0)) {
		t.Error("seeds 1 and 2 gave the same request sequence")
	}
	if reflect.DeepEqual(take(1, 0), take(1, 1)) {
		t.Error("clients 0 and 1 gave the same request sequence")
	}
	events := func(seed uint64) []any {
		s := newEventStream(seed, 0, sp)
		out := make([]any, 300)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	if !reflect.DeepEqual(events(1), events(1)) || reflect.DeepEqual(events(1), events(2)) {
		t.Error("event streams are not a pure function of the seed")
	}
}

func TestRequestShapes(t *testing.T) {
	sp := fullScale.model.space()
	s := newRequestStream(7, 0, readMix, sp)
	var count [numOps]int
	cross := 0
	const n = 20000
	third := sp.users / fleetShards
	for i := 0; i < n; i++ {
		r := s.next()
		count[r.op]++
		switch r.op {
		case opDiffusion:
			if r.u == r.v {
				t.Fatal("diffusion request with u == v")
			}
			if r.u/third != r.v/third {
				cross++
			}
		case opFoldIn:
			if len(r.foldin.Friends) != foldinFriends || len(r.foldin.Docs) != foldinDocs || len(r.foldin.Docs[0]) != foldinDocLen {
				t.Fatalf("fold-in request has the wrong shape: %+v", r.foldin)
			}
			// The friends are a third of the id space apart, so no single
			// third of the users holds two of them.
			thirds := map[int32]bool{}
			for _, f := range r.foldin.Friends {
				thirds[f/int32(third)] = true
			}
			if len(thirds) < foldinFriends-1 {
				t.Fatalf("fold-in friends %v sit in %d thirds of the users", r.foldin.Friends, len(thirds))
			}
		}
	}
	// The mix is stratified: 20000 requests are 2000 whole blocks.
	for k, w := range readMix {
		if count[k] != w*n/10 {
			t.Errorf("%s came %d times in %d requests, want exactly %d", opKind(k), count[k], n, w*n/10)
		}
	}
	if share := float64(cross) / float64(count[opDiffusion]); math.Abs(share-2.0/3) > 0.03 {
		t.Errorf("%.3f of diffusion pairs cross equal thirds of the users, want about 2/3", share)
	}
}

// BENCHMARK.json is what the driver reads; the harness's own tables are
// what it prints. They must name the same things.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloadOrder)
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the harness %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || (bounded && g.Bound != d.bound) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the harness %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, contractMetrics, true)
	check("per_layer", b.PerLayer, layerMetrics, false)
	if len(layerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(layerMetrics))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
}

// The smoke run is every workload and its traced run at about a
// hundredth of the size, with every correctness gate that does not need
// a run of real length.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"-smoke", "-seed", "3"}, &stdout, &stderr); code != 0 {
		var gates []string
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.Contains(line, "GATE FAILED") {
				gates = append(gates, line)
			}
		}
		t.Fatalf("smoke run exited %d\n%s\n%s", code, strings.Join(gates, "\n"), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]metric
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
		t.Errorf("smoke result: correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	for _, w := range workloadOrder {
		for _, d := range contractMetrics {
			if m := last.Metrics[w+"/"+d.name]; m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s %s = %+v, want a positive value in %s", w, d.name, m, d.unit)
			}
		}
		for _, d := range workloadMetrics[w] {
			if m := last.Metrics[w+"/"+d.name]; m.Value <= 0 {
				t.Errorf("%s %s = %+v, want a positive value", w, d.name, m)
			}
		}
		for _, d := range layerMetrics {
			if _, ok := last.Metrics[w+"+trace/"+d.name]; !ok {
				t.Errorf("traced %s does not report %s", w, d.name)
			}
		}
	}
	// Layers a workload does not touch stay at zero; the ones it is about
	// do not.
	for _, tc := range []struct {
		key  string
		zero bool
	}{
		{"read-node+trace/router.self_rank_us", true},
		{"read-routed+trace/router.self_rank_us", false},
		{"read-routed+trace/router.fanout_per_req", false},
		{"read-node+trace/http.node_hop_us", false},
		{"read-node+trace/serve.engine_foldin_us", false},
		{"ingest-read+trace/stream.publish_p50_ms", false},
		{"ingest-read+trace/core.exact_sweep_ms", true},
		{"train+trace/core.exact_sweep_ms", false},
		{"train+trace/serve.engine_rank_us", true},
	} {
		if v := last.Metrics[tc.key].Value; (v == 0) != tc.zero {
			t.Errorf("%s = %v, want zero: %v", tc.key, v, tc.zero)
		}
	}
}

func TestCompareHoldsMediansAgainstBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range qps {
			res := newResult()
			res.set("qps", "1/s", v, 20)
			res.set("throughput_per_s", "1/s", v, 20)
			res.set("rank_quiet_us", "us", 50, 1000)
			if err := appendRun(path, runRecord{Seed: 1, Workloads: map[string]*result{"read-node": res}}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", 1000, 1010, 990, 1005, 995)
	same := write("b.json", 1001, 985, 1012, 998, 1003)
	slow := write("c.json", 800, 810, 790, 805, 795)
	var out, errOut bytes.Buffer
	if code := runCompare(base, same, &out, &errOut); code != 0 {
		t.Errorf("A/A compare exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := runCompare(base, slow, &out, &errOut); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 20%% throughput drop exited %d:\n%s", code, out.String())
	}
	if code := runCompare(slow, base, &out, &errOut); code != 0 {
		t.Errorf("an improvement exited %d, want 0", code)
	}
	if code := runCompare(base, filepath.Join(dir, "missing.json"), &out, &errOut); code != 2 {
		t.Errorf("a missing file exited %d, want 2", code)
	}
}
