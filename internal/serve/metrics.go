package serve

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/hist"
	"repro/internal/quality"
)

// AddMetricsCollector registers an extra contributor to WriteMetrics —
// how cmd/cpd-serve surfaces the stream updater's ingest counters and
// publish-latency/lag histograms on /metrics without this package
// depending on internal/stream (the SetIngestStats pattern). Collectors
// run after the engine's own families and must emit complete, valid
// Prometheus text exposition themselves.
func (e *Engine) AddMetricsCollector(fn func(io.Writer)) {
	e.collectorsMu.Lock()
	e.collectors = append(e.collectors, fn)
	e.collectorsMu.Unlock()
}

// WriteMetrics emits the engine's state in Prometheus text exposition
// format (version 0.0.4, hand-rolled on the stdlib): per-endpoint request
// and error counters plus latency histograms, process RSS, per-snapshot
// mapped/heap byte gauges, and the latest structural quality report per
// slot as gauges — then any registered collectors.
func (e *Engine) WriteMetrics(w io.Writer) {
	fmt.Fprint(w, "# HELP cpd_endpoint_requests_total Requests served per endpoint.\n# TYPE cpd_endpoint_requests_total counter\n")
	stats := make([]*hist.Hist, epCount)
	for i := 0; i < epCount; i++ {
		stats[i] = e.lat[i].Snapshot()
		fmt.Fprintf(w, "cpd_endpoint_requests_total{endpoint=%q} %d\n", endpointNames[i], stats[i].Count)
	}
	fmt.Fprint(w, "# HELP cpd_endpoint_errors_total Failed requests per endpoint.\n# TYPE cpd_endpoint_errors_total counter\n")
	for i := 0; i < epCount; i++ {
		fmt.Fprintf(w, "cpd_endpoint_errors_total{endpoint=%q} %d\n", endpointNames[i], stats[i].Errs)
	}
	fmt.Fprint(w, "# HELP cpd_endpoint_latency_seconds Request latency per endpoint.\n# TYPE cpd_endpoint_latency_seconds histogram\n")
	for i := 0; i < epCount; i++ {
		stats[i].WriteProm(w, "cpd_endpoint_latency_seconds", `endpoint=`+strconv.Quote(endpointNames[i]))
	}

	lazy := e.FoldInLazy()
	fmt.Fprint(w, "# HELP cpd_foldin_candidates_total Topic and community candidates the fold-in draws were offered (considered) and computed (evaluated).\n# TYPE cpd_foldin_candidates_total counter\n")
	fmt.Fprintf(w, "cpd_foldin_candidates_total{state=\"considered\"} %d\ncpd_foldin_candidates_total{state=\"evaluated\"} %d\n", lazy.Considered, lazy.Evaluated)

	fmt.Fprint(w, "# HELP cpd_snapshot_builds_total Snapshots constructed, by whether the predecessor's indexes were patched or everything was built in full.\n# TYPE cpd_snapshot_builds_total counter\n")
	fmt.Fprintf(w, "cpd_snapshot_builds_total{kind=%q} %d\ncpd_snapshot_builds_total{kind=%q} %d\n", BuildPatched, e.patchedBuilds.Load(), BuildFull, e.fullBuilds.Load())
	fmt.Fprint(w, "# HELP cpd_snapshot_build_seconds Snapshot construction time (delta derivation and index build or patch).\n# TYPE cpd_snapshot_build_seconds histogram\n")
	e.buildLat.Snapshot().WriteProm(w, "cpd_snapshot_build_seconds", "")

	gauge(w, "cpd_process_rss_bytes", "Process resident set size.", "", float64(ProcessRSS()))

	infos := e.SnapshotsInfo()
	snapGauge := func(name, help string, get func(SnapshotStats) float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, info := range infos {
			fmt.Fprintf(w, "%s{snapshot=%q} %s\n", name, info.Name, promFloat(get(info)))
		}
	}
	snapGauge("cpd_snapshot_version", "Engine version of the live snapshot.",
		func(s SnapshotStats) float64 { return float64(s.Version) })
	snapGauge("cpd_snapshot_users", "Users served by the snapshot.",
		func(s SnapshotStats) float64 { return float64(s.Users) })
	snapGauge("cpd_snapshot_mapped_bytes", "Bytes served from a file mapping (0 for heap snapshots).",
		func(s SnapshotStats) float64 { return float64(s.MappedBytes) })
	snapGauge("cpd_snapshot_heap_bytes", "Estimated heap footprint of the snapshot (caches and indexes).",
		func(s SnapshotStats) float64 { return float64(s.HeapBytes) })
	snapGauge("cpd_snapshot_refs", "In-flight query pins on the snapshot.",
		func(s SnapshotStats) float64 { return float64(s.Refs) })

	e.writeQualityMetrics(w)

	e.collectorsMu.Lock()
	collectors := append([]func(io.Writer){}, e.collectors...)
	e.collectorsMu.Unlock()
	for _, fn := range collectors {
		fn(w)
	}
}

// qualityGauges maps every scalar of a quality.Report onto one gauge
// family each, labeled {snapshot, algo}.
var qualityGauges = []struct {
	name, help string
	get        func(*quality.Report) float64
}{
	{"cpd_quality_generation", "Publisher generation the report scores.", func(r *quality.Report) float64 { return float64(r.Generation) }},
	{"cpd_quality_communities", "Non-empty communities in the partition.", func(r *quality.Report) float64 { return float64(r.Communities) }},
	{"cpd_quality_modularity", "Girvan-Newman modularity of the served partition.", func(r *quality.Report) float64 { return r.Modularity }},
	{"cpd_quality_coverage", "Fraction of friendship edges inside communities.", func(r *quality.Report) float64 { return r.Coverage }},
	{"cpd_quality_avg_conductance", "Mean per-community conductance (lower is better separated).", func(r *quality.Report) float64 { return r.AvgConductance }},
	{"cpd_quality_size_min", "Smallest non-empty community.", func(r *quality.Report) float64 { return float64(r.SizeMin) }},
	{"cpd_quality_size_p50", "Median community size.", func(r *quality.Report) float64 { return float64(r.SizeP50) }},
	{"cpd_quality_size_max", "Largest community.", func(r *quality.Report) float64 { return float64(r.SizeMax) }},
	{"cpd_quality_imbalance", "Largest community over mean community size.", func(r *quality.Report) float64 { return r.Imbalance }},
	{"cpd_quality_entropy", "Normalized community-size entropy (1 = even).", func(r *quality.Report) float64 { return r.Entropy }},
	{"cpd_quality_tail_exponent", "Hill power-law exponent of the community-size tail.", func(r *quality.Report) float64 { return r.TailExponent }},
	{"cpd_quality_churn", "Fraction of users whose community changed vs the previous generation.", func(r *quality.Report) float64 { return r.Churn }},
	{"cpd_quality_nmi_prev", "NMI between this generation's partition and the previous one.", func(r *quality.Report) float64 { return r.PrevNMI }},
	{"cpd_quality_cost_seconds", "What computing the report cost the publish path.", func(r *quality.Report) float64 { return float64(r.CostMicros) / 1e6 }},
}

func (e *Engine) writeQualityMetrics(w io.Writer) {
	type row struct {
		slot string
		r    *quality.Report
	}
	var rows []row
	e.qualityMu.Lock()
	for name, h := range e.qualityHist {
		if len(h) > 0 {
			rows = append(rows, row{name, h[len(h)-1]})
		}
	}
	for name, b := range e.qualityBaseline {
		rows = append(rows, row{name, b})
	}
	e.qualityMu.Unlock()
	if len(rows) == 0 {
		return
	}
	for _, g := range qualityGauges {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", g.name, g.help, g.name)
		for _, row := range rows {
			fmt.Fprintf(w, "%s{snapshot=%q,algo=%q} %s\n", g.name, row.slot, row.r.Algo, promFloat(g.get(row.r)))
		}
	}
}

func gauge(w io.Writer, name, help, labels string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s%s %s\n", name, labels, promFloat(v))
}

func promFloat(v float64) string {
	s := strconv.FormatFloat(v, 'g', -1, 64)
	// Prometheus text format spells exponents without '+' padding quirks;
	// Go's 'g' output is accepted as-is, so only NaN needs normalizing.
	if strings.Contains(s, "NaN") {
		return "0"
	}
	return s
}
