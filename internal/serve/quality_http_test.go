package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/quality"
)

// TestQualityEndpoint covers both /api/quality paths: the fallback one-off
// report for a slot with no recorded history, and the recorded
// history + PLP baseline a streaming publisher would have left behind.
func TestQualityEndpoint(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	e := testEngine(t, m, nil, Options{})
	h := APIHandler(e, nil)

	// No history recorded: the endpoint must still describe the live
	// snapshot via a one-off membership-shape report.
	rec := apiGet(t, h, "/api/quality")
	if rec.Code != http.StatusOK {
		t.Fatalf("quality fallback: %d: %s", rec.Code, rec.Body.String())
	}
	var p QualityPayload
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if p.Snapshot != DefaultSnapshot || len(p.History) != 1 || p.Baseline != nil {
		t.Fatalf("fallback payload: %+v", p)
	}
	if p.History[0].Users != 20 || p.History[0].Algo != "cpd" {
		t.Fatalf("fallback report does not describe the served model: %+v", p.History[0])
	}

	// Recorded history and baseline serve as-is, oldest first.
	for gen := 1; gen <= 3; gen++ {
		r := quality.FromModel(m, nil, nil)
		r.Generation = uint64(gen)
		e.RecordQuality(DefaultSnapshot, r)
	}
	base := quality.FromModel(m, nil, nil)
	base.Algo = "plp"
	e.RecordQualityBaseline(DefaultSnapshot, base)

	rec = apiGet(t, h, "/api/quality")
	if rec.Code != http.StatusOK {
		t.Fatalf("quality history: %d", rec.Code)
	}
	p = QualityPayload{}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		t.Fatal(err)
	}
	if len(p.History) != 3 || p.History[0].Generation != 1 || p.History[2].Generation != 3 {
		t.Fatalf("history not served oldest-first: %+v", p.History)
	}
	if p.Baseline == nil || p.Baseline.Algo != "plp" {
		t.Fatalf("baseline row missing: %+v", p.Baseline)
	}

	// ?format=table answers the terminal table of the same history and
	// baseline as text; any other format keeps the JSON.
	history, baseline := e.QualityHistory(DefaultSnapshot)
	want := quality.Table(append(history, baseline))
	rec = apiGet(t, h, "/api/quality?format=table")
	if rec.Code != http.StatusOK {
		t.Fatalf("quality table: %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("quality table content type %q", ct)
	}
	if got := rec.Body.String(); got != want {
		t.Fatalf("quality table:\n%s\nwant\n%s", got, want)
	}
	if !strings.Contains(want, "gen 3/cpd") || !strings.Contains(want, "plp") {
		t.Fatalf("table lacks the history or the baseline column:\n%s", want)
	}
	rec = apiGet(t, h, "/api/quality?format=json")
	if ct := rec.Header().Get("Content-Type"); rec.Code != http.StatusOK || !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("format=json: %d %q", rec.Code, ct)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &QualityPayload{}); err != nil {
		t.Fatalf("format=json is not the JSON payload: %v", err)
	}
	if rec := apiGet(t, h, "/api/quality?format=table&snapshot=nope"); rec.Code != http.StatusNotFound {
		t.Fatalf("table of an unknown snapshot: %d", rec.Code)
	}

	// The ?snapshot= route addresses slots by name; unknown slots error.
	if rec := apiGet(t, h, "/api/quality?snapshot="+DefaultSnapshot); rec.Code != http.StatusOK {
		t.Fatalf("named quality: %d", rec.Code)
	}
	if rec := apiGet(t, h, "/api/quality?snapshot=nope"); rec.Code == http.StatusOK {
		t.Fatal("unknown snapshot served a quality payload")
	}

	// /api/stats folds the newest report in as the quality summary, and
	// the quality endpoint's own latency shows up under its counter.
	rec = apiGet(t, h, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	var sr StatsReport
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Quality == nil || sr.Quality[DefaultSnapshot] == nil || sr.Quality[DefaultSnapshot].Generation != 3 {
		t.Fatalf("stats quality summary is not the newest report: %+v", sr.Quality)
	}
	q := sr.Endpoints["quality"]
	if q.Count < 3 || q.Errors == 0 {
		t.Fatalf("quality endpoint counter did not accumulate: %+v", q)
	}
	if q.P50Micros > q.P95Micros || q.P95Micros > q.P99Micros {
		t.Fatalf("quality latency percentiles not monotone: %+v", q)
	}
}

// sampleLine matches one Prometheus text-exposition sample:
// name{labels} value.
var sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$`)

// checkPromText validates Prometheus text-exposition output: every sample
// parses, belongs to a family declared with # TYPE, histogram buckets are
// cumulative with the +Inf bucket equal to the series count.
func checkPromText(t *testing.T, body string) {
	t.Helper()
	types := map[string]string{} // family -> type
	type histSeries struct {
		last    float64 // running cumulative check
		inf     float64
		sawInf  bool
		count   float64
		hasCnt  bool
		samples int
	}
	hists := map[string]*histSeries{} // family+labels (le stripped) -> state

	family := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				return base
			}
		}
		return name
	}
	stripLE := func(labels string) (rest string, le string) {
		if labels == "" {
			return "", ""
		}
		inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
		var kept []string
		for _, part := range strings.Split(inner, ",") {
			if v, ok := strings.CutPrefix(part, `le="`); ok {
				le = strings.TrimSuffix(v, `"`)
				continue
			}
			kept = append(kept, part)
		}
		return strings.Join(kept, ","), le
	}

	for i, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("line %d: empty line inside the exposition", i+1)
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("line %d: malformed TYPE: %q", i+1, line)
			}
			if _, dup := types[parts[2]]; dup {
				t.Fatalf("line %d: family %s declared twice", i+1, parts[2])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		mm := sampleLine.FindStringSubmatch(line)
		if mm == nil {
			t.Fatalf("line %d: not a valid sample: %q", i+1, line)
		}
		name, labels, valStr := mm[1], mm[2], mm[3]
		fam := family(name)
		if _, ok := types[fam]; !ok {
			t.Fatalf("line %d: sample %s has no # TYPE declaration", i+1, name)
		}
		if types[fam] != "histogram" {
			continue
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		rest, le := stripLE(labels)
		key := fam + "|" + rest
		hs := hists[key]
		if hs == nil {
			hs = &histSeries{}
			hists[key] = hs
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			hs.samples++
			if val < hs.last {
				t.Fatalf("line %d: histogram %s buckets not cumulative (%g after %g)", i+1, key, val, hs.last)
			}
			hs.last = val
			if le == "+Inf" {
				hs.inf, hs.sawInf = val, true
			}
		case strings.HasSuffix(name, "_count"):
			hs.count, hs.hasCnt = val, true
		}
	}
	if len(types) == 0 {
		t.Fatal("exposition declared no metric families")
	}
	for key, hs := range hists {
		if hs.samples == 0 {
			continue
		}
		if !hs.sawInf || !hs.hasCnt {
			t.Fatalf("histogram %s lacks a +Inf bucket or _count", key)
		}
		if hs.inf != hs.count {
			t.Fatalf("histogram %s: +Inf bucket %g != count %g", key, hs.inf, hs.count)
		}
	}
}

// TestMetricsEndpoint drives traffic through the API, then validates the
// /metrics exposition — format, families, histogram invariants — and spot
// checks the families the dashboard alerts on.
func TestMetricsEndpoint(t *testing.T) {
	m := SyntheticModel(20, 6, 4, 80, 11)
	e := testEngine(t, m, nil, Options{})
	h := APIHandler(e, nil)

	for _, path := range []string{"/api/communities", "/api/user?id=3&k=2", "/api/rank?w=1&k=3", "/api/quality", "/api/stats"} {
		if rec := apiGet(t, h, path); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d", path, rec.Code)
		}
	}
	r := quality.FromModel(m, nil, nil)
	r.Generation = 7
	e.RecordQuality(DefaultSnapshot, r)
	// Two documents, the default 20 sweeps, 4 topic and 6 community
	// candidates per step.
	if _, err := e.FoldInNamed(DefaultSnapshot, &FoldInRequest{Docs: [][]int32{{1, 2}, {3}}, Friends: []int32{5}, Seed: 1}); err != nil {
		t.Fatal(err)
	}

	rec := apiGet(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	body := rec.Body.String()
	checkPromText(t, body)

	for _, want := range []string{
		`cpd_endpoint_requests_total{endpoint="rank"} 1`,
		`cpd_endpoint_requests_total{endpoint="membership"} 1`,
		"cpd_endpoint_latency_seconds_bucket",
		"cpd_process_rss_bytes",
		`cpd_foldin_candidates_total{state="considered"} 400`,
		`cpd_foldin_candidates_total{state="evaluated"} `,
		`cpd_snapshot_users{snapshot="default"} 20`,
		`cpd_quality_generation{snapshot="default",algo="cpd"} 7`,
		"cpd_quality_modularity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q", want)
		}
	}

	// A registered collector's families ride along (the cpd-serve pattern
	// for the stream updater's ingest counters) and the exposition stays
	// valid with them appended.
	e.AddMetricsCollector(func(w io.Writer) {
		fmt.Fprint(w, "# HELP cpd_test_collector_gauge A collector-contributed family.\n# TYPE cpd_test_collector_gauge gauge\ncpd_test_collector_gauge 1\n")
	})
	rec = apiGet(t, h, "/metrics")
	body = rec.Body.String()
	if !strings.Contains(body, "cpd_test_collector_gauge 1") {
		t.Error("registered collector's family missing from /metrics")
	}
	checkPromText(t, body)
}
