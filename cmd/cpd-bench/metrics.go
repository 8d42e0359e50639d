package main

import (
	"fmt"
	"sort"
)

// metricDef names one reported figure. better is "higher" or "lower";
// bound is the share of the baseline median by which an end-to-end
// metric may worsen before -compare (and the driver) call it a
// regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// contractMetrics are the end-to-end metrics every workload reports (the
// end_to_end list of BENCHMARK.json). Each workload fills the three
// generic slots with its own figures; workloadSlots records which.
var contractMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"fast_op_us", "us", "lower", 0.25},
	{"slow_op_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// workloadMetrics are each workload's own end-to-end figures. They are
// printed on every run, kept in the result files and compared by
// -compare. The whole-run medians the issue named ({op}_p50_us,
// read_p50_us) are printed and stored beside them, but they follow the
// host, not the program, and are held to no bound.
var workloadMetrics = map[string][]metricDef{
	"read-node":   readMetrics,
	"read-routed": readMetrics,
	"ingest-read": {
		{"events_per_s", "1/s", "higher", 0.15},
		{"publish_lag_p50_ms", "ms", "lower", 0.15},
		{"read_quiet_us", "us", "lower", 0.15},
	},
	"train": {
		{"exact_tokens_per_s", "1/s", "higher", 0.15},
		{"alias_tokens_per_s", "1/s", "higher", 0.15},
	},
}

var readMetrics = []metricDef{
	{"qps", "1/s", "higher", 0.15},
	{"rank_quiet_us", "us", "lower", 0.15},
	{"membership_quiet_us", "us", "lower", 0.15},
	{"diffusion_quiet_us", "us", "lower", 0.15},
	{"foldin_quiet_us", "us", "lower", 0.15},
}

// workloadSlots maps the generic contract slots to the workload's own
// metric: throughput, the cheap operation callers wait on, and the
// expensive one. For train the operations are one EM iteration of each
// sampler, derived from the same core.Train wall times as the
// tokens-per-second figures.
var workloadSlots = map[string][3]string{
	"read-node":   {"qps", "rank_quiet_us", "foldin_quiet_us"},
	"read-routed": {"qps", "rank_quiet_us", "foldin_quiet_us"},
	"ingest-read": {"events_per_s", "read_quiet_us", "publish_lag_p50_ms"},
	"train":       {"tokens_per_s", "alias_iter_us", "exact_iter_us"},
}

var workloadOrder = []string{"read-node", "read-routed", "ingest-read", "train"}

// layerMetrics is the per_layer list of BENCHMARK.json: <module>.<name>.
// A workload in which a layer does nothing reports 0 for it. The e2e.*
// entries carry the workload-specific end-to-end figures into the traced
// run's ledger.
var layerMetrics = buildLayerMetrics()

func buildLayerMetrics() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{name: n, unit: unit, better: better})
		}
	}
	perOp := func(prefix, suffix string) []string {
		out := make([]string, numOps)
		for k := range out {
			out[k] = prefix + opNames[k] + suffix
		}
		return out
	}
	add("us", "lower", perOp("serve.engine_", "_us")...)
	add("us", "lower", perOp("serve.httpapi_", "_self_us")...)
	add("count", "lower", "serve.httpapi_allocs_per_req", "serve.httpapi_alloc_bytes_per_req", "serve.resp_bytes_per_req")
	add("us", "lower", "http.node_hop_us", "http.front_hop_us", "http.backend_hop_us")
	add("us", "lower", perOp("router.self_", "_us")...)
	add("us", "lower", perOp("router.backend_wait_", "_us")...)
	add("count", "lower", "router.fanout_per_req", "router.backend_bytes_per_req", "router.misroutes")
	add("count", "higher", "router.shared_scatters")
	add("us", "lower", "stream.ingest_call_us")
	add("ms", "lower", "stream.publish_p50_ms", "stream.publish_p90_ms", "stream.sync_ms", "stream.fold_ms",
		"stream.model_ms", "stream.promote_ms", "stream.unattributed_ms")
	add("%", "higher", "stream.incremental_share")
	add("count", "lower", "stream.journal_bytes_per_event")
	add("ms", "lower", "store.save_reuse_ms", "store.save_full_ms", "store.open_ms")
	add("count", "higher", "store.sections_reused")
	add("MB", "lower", "store.snapshot_mb")
	add("ms", "lower", "serve.patch_index_ms", "serve.build_index_ms", "shard.publish_delta_ms")
	add("%", "higher", "shard.linked_share")
	add("MB/s", "higher", "shard.split_mb_s", "shard.join_mb_s")
	add("MB", "lower", "shard.replica_mapped_mb")
	add("ms", "lower", "core.exact_sweep_ms", "core.alias_sweep_ms", "core.exact_mstep_ms", "core.alias_mstep_ms", "core.refresh_build_ms")
	add("s", "lower", "core.new_engine_s")
	add("ratio", "lower", "core.worker_imbalance")
	add("count", "lower", "core.repacks", "core.segments")
	add("nmi", "higher", "core.exact_nmi", "core.alias_nmi")
	add("ns", "lower", "alias.build_ns_per_weight")
	add("us", "lower", perOp("loadgen.", "_p50_us")...)
	add("us", "lower", perOp("loadgen.", "_p99_us")...)
	add("us", "lower", "loadgen.p999_us", "loadgen.reader_p99_us", "loadgen.reader_late_us")
	add("%", "lower", "loadgen.qps_iqr_pct", "loadgen.trace_overhead_pct", "loadgen.ledger_gap_pct")
	add("count", "lower", "proc.allocs_per_op", "proc.gc_cycles")
	add("KB", "lower", "proc.alloc_kb_per_op")
	add("ms", "lower", "proc.gc_pause_ms")
	add("s", "lower", "proc.cpu_s")
	seen := map[string]bool{}
	for _, w := range workloadOrder {
		for _, d := range workloadMetrics[w] {
			if !seen[d.name] {
				seen[d.name] = true
				defs = append(defs, metricDef{name: "e2e." + d.name, unit: d.unit, better: d.better})
			}
		}
	}
	return defs
}

// metric is one measured value. N is the number of samples behind a
// timing (0 for counts and sizes).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// result is what one workload run produced.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Counts    map[string]int    `json:"counts,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func newResult() *result {
	return &result{Correct: true, Metrics: map[string]metric{}, Counts: map[string]int{}}
}

func (r *result) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, N: n}
}

var layerUnits = func() map[string]string {
	units := make(map[string]string, len(layerMetrics))
	for _, d := range layerMetrics {
		units[d.name] = d.unit
	}
	return units
}()

// setLayer records a per-layer metric by its registered name and unit.
func (r *result) setLayer(name string, v float64, n int) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("cpd-bench: unregistered per-layer metric " + name)
	}
	r.set(name, unit, v, n)
}

// fail records a failed correctness gate.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// sortedNames lists the metrics of a result in a stable order.
func (r *result) sortedNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
