// Command cpd-bench is the repository's one benchmark harness: four
// workloads over the read, write and train paths, run in one process on
// one processor, with every end-to-end metric measured with tracing off and a
// separate traced run that attributes time to layers from outside the
// program. bench/README.md documents the workloads, the metrics and what
// each layer metric is expected to move.
//
//	go run ./cmd/cpd-bench -seed 1             all four workloads, end to end
//	go run ./cmd/cpd-bench -seed 1 -trace 1    the traced run (per-layer ledger)
//	go run ./cmd/cpd-bench -workload train     one workload (how BENCHMARK.json runs it)
//	go run ./cmd/cpd-bench -compare A.json B.json
//	go run ./cmd/cpd-bench -smoke              everything at ~1 % size, a few seconds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// benchProcs pins the scheduler to one processor. The reference host's
// two virtual processors are not two cores the benchmark owns: the
// hypervisor takes either away for milliseconds at a time, and a request
// that crosses both waits for whichever is missing. On one processor a
// quiet minute repeats within 1 % (rank latency 68.0-68.5 us, a training
// call 330.3-332.3 ms over three runs) where two repeated within 5 %, and
// the process's CPU time becomes a clock that stolen time does not move
// (busyClock). Throughput is therefore requests per second of one core
// that serves the client, the router and every replica.
const benchProcs = 1

// scale is every size the workloads run at. fullScale is the benchmark;
// smokeScale is the same code at about a hundredth of the size, which is
// what `go test` runs.
type scale struct {
	model          modelShape
	setupReps      int     // set-ups per run at least; setup_s is the quickest
	clients        int     // closed-loop callers
	warm           int     // untimed warm-up requests per client, inside set-up
	gate           int     // requests replayed through the correctness gate
	replay         int     // requests of the sequential traced replay
	allocReqs      int     // requests behind the allocation counts
	readerRate     float64 // paced reader, requests per second
	window         int     // stream.Options.WindowEvents
	episodeWindows int     // publish windows per ingest episode
	publishes      int     // publishes of the traced ingest run
	gateUsers      int     // touched users compared after the ingest run
	train          trainScale
}

var fullScale = scale{
	model:     modelShape{users: 20000, communities: 64, topics: 32, words: 20000},
	setupReps: 5, clients: 2, warm: 500, gate: 500, replay: 20000, allocReqs: 2000,
	readerRate: 2000, window: 256, episodeWindows: 16, publishes: 40, gateUsers: 200,
	train: trainScale{users: 150, dims: 50, exactIters: 8, aliasIters: 20, exactNMI: 0.30, aliasNMI: 0.35},
}

var smokeScale = scale{
	model:     modelShape{users: 1500, communities: 12, topics: 8, words: 1500},
	setupReps: 2, clients: 2, warm: 20, gate: 60, replay: 150, allocReqs: 50,
	readerRate: 400, window: 24, episodeWindows: 2, publishes: 3, gateUsers: 20,
	train: trainScale{users: 120, dims: 8, exactIters: 3, aliasIters: 4},
}

// runCtx is what a workload run is given.
type runCtx struct {
	seed    uint64
	seconds float64
	trace   bool
	sc      scale
	tmp     string // scratch directory, removed when the run ends
	outDir  string // where trace files go
	log     io.Writer
}

func (rc *runCtx) duration(share float64) time.Duration {
	return time.Duration(rc.seconds * share * float64(time.Second))
}

var workloads = map[string]func(*runCtx) *result{
	"read-node":   func(rc *runCtx) *result { return runRead(rc, "read-node", false) },
	"read-routed": func(rc *runCtx) *result { return runRead(rc, "read-routed", true) },
	"ingest-read": runIngest,
	"train":       runTrain,
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cpd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (read-node, read-routed, ingest-read, train); empty runs all four")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests and events")
	seconds := fs.Float64("seconds", 25, "seconds each workload measures for")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics; 0 reports end-to-end metrics")
	smoke := fs.Bool("smoke", false, "run every workload and its trace at ~1% size")
	out := fs.String("out", "", "append this run to a result file (JSON ledger)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "cpd-bench: -compare takes two result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "cpd-bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	names := workloadOrder
	if *workload != "" {
		if workloads[*workload] == nil {
			fmt.Fprintf(stderr, "cpd-bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadOrder, ", "))
			return 2
		}
		names = []string{*workload}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "cpd-bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)

	sc := fullScale
	traces := []bool{*trace == 1}
	if *smoke {
		sc = smokeScale
		*seconds = 0.4
		traces = []bool{false, true}
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(stderr, "cpd-bench:", err)
		return 1
	}
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "cpd-bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(stderr, "cpd-bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rec := runRecord{
		Time: time.Now().UTC().Format(time.RFC3339), Commit: commit(root), Seed: *seed, Seconds: *seconds,
		Smoke: *smoke, Workloads: map[string]*result{},
	}
	total := newResult()
	for _, traced := range traces {
		for _, name := range names {
			if len(names)*len(traces) > 1 {
				resetPeakRSS()
			}
			rc := &runCtx{seed: *seed, seconds: *seconds, trace: traced, sc: sc, tmp: tmp, outDir: outDir, log: stderr}
			res := workloads[name](rc)
			finish(name, res, traced)
			printResult(stdout, name, res)
			key := name
			if traced {
				key += "+trace"
			}
			rec.Workloads[key] = res
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			if !res.Correct {
				total.Correct = false
			}
			for n, m := range res.Metrics {
				total.Metrics[key+"/"+n] = m
			}
		}
	}
	if *out != "" {
		if err := appendRun(*out, rec); err != nil {
			fmt.Fprintln(stderr, "cpd-bench:", err)
			return 1
		}
	}
	// The last line of standard output is the run as one JSON object. For a
	// single workload the metrics are exactly the end_to_end list of
	// BENCHMARK.json (or, traced, its per_layer list).
	final := total
	if *workload != "" && !*smoke {
		res := rec.Workloads[names[0]]
		if traces[0] {
			res = rec.Workloads[names[0]+"+trace"]
		}
		final = contractResult(res, traces[0])
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{final.Correct, final.Attempted, final.Failed, contractMetricsOnly(final.Metrics)})
	if err != nil {
		fmt.Fprintln(stderr, "cpd-bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// contractMetricsOnly drops the sample counts: the contract's metric
// objects have exactly a value and a unit.
func contractMetricsOnly(in map[string]metric) map[string]metric {
	out := make(map[string]metric, len(in))
	for n, m := range in {
		out[n] = metric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// finish derives the contract's generic slots from the workload's own
// metrics and, for a traced run, fills every per-layer metric the
// workload did not touch with 0 — the layer did nothing.
func finish(name string, res *result, traced bool) {
	if res.Attempted < 1 {
		res.fail("no operation was attempted")
		res.Attempted = 1
		res.Failed = 1
	}
	if traced {
		for _, d := range workloadMetrics[name] {
			if m, ok := res.Metrics[d.name]; ok {
				res.setLayer("e2e."+d.name, m.Value, m.N)
			}
		}
		for _, d := range layerMetrics {
			if _, ok := res.Metrics[d.name]; !ok {
				res.set(d.name, d.unit, 0, 0)
			}
		}
		return
	}
	// contractMetrics[1:4] are the three generic slots, all per second or
	// in microseconds.
	for i, slot := range contractMetrics[1:4] {
		from := workloadSlots[name][i]
		src, ok := res.Metrics[from]
		if !ok || src.Value <= 0 {
			res.fail("%s produced no %s (for %s)", name, from, slot.name)
			continue
		}
		v := src.Value
		if src.Unit == "ms" {
			v *= 1000
		}
		res.set(slot.name, slot.unit, v, src.N)
	}
}

// contractResult narrows a result to the metric list BENCHMARK.json
// declares for this kind of run.
func contractResult(res *result, traced bool) *result {
	out := &result{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	defs := contractMetrics
	if traced {
		defs = layerMetrics
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			out.Correct = false
			continue
		}
		out.Metrics[d.name] = m
	}
	return out
}

// printResult prints every metric as "workload metric value unit", with
// the sample count beside each timing.
func printResult(w io.Writer, name string, res *result) {
	for _, n := range res.sortedNames() {
		m := res.Metrics[n]
		if m.N > 0 {
			fmt.Fprintf(w, "%s %s %.6g %s n=%d\n", name, n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(w, "%s %s %.6g %s\n", name, n, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", name, res.Attempted, name, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "%s GATE FAILED: %s\n", name, p)
	}
}

// repoRoot finds the checkout the harness runs in: the nearest directory
// at or above the working directory that holds BENCHMARK.json or go.mod.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		for _, marker := range []string{"BENCHMARK.json", "go.mod"} {
			if _, err := os.Stat(filepath.Join(d, marker)); err == nil {
				return d, nil
			}
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no BENCHMARK.json or go.mod at or above %s", dir)
		}
	}
}

// commit names the source the numbers belong to: HEAD, marked "-dirty"
// when the work tree differs from it. A checkout that is not a git
// repository reports "unknown".
func commit(root string) string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", append([]string{"-C", root}, args...)...)
		// Do not wander into a repository that merely contains the checkout.
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	head, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return "unknown"
	}
	if changes, err := git("status", "--porcelain"); err != nil || changes != "" {
		head += "-dirty"
	}
	return head
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts the high-water mark so that each workload of a
// multi-workload process reports its own peak. Where the kernel refuses,
// the mark stays cumulative over the process.
func resetPeakRSS() {
	debug.FreeOSMemory() // give the previous workload's heap back first
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0o200)
}

// busyClock is the process's user plus system CPU time so far (one
// getrusage call, 0.6 us, microsecond resolution). The process runs on one
// processor and a timed phase never leaves it idle, so between two
// readings the clock advances by the wall time minus what the hypervisor
// stole and what was spent waiting for the disk.
func busyClock() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMeter measures what a phase cost the process: allocations, GC and
// CPU time.
type procMeter struct {
	ms  runtime.MemStats
	cpu float64
}

func startProcMeter() *procMeter {
	p := &procMeter{cpu: busyClock().Seconds()}
	runtime.ReadMemStats(&p.ms)
	return p
}

func (p *procMeter) report(res *result, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	if ops < 1 {
		ops = 1
	}
	res.setLayer("proc.allocs_per_op", float64(now.Mallocs-p.ms.Mallocs)/float64(ops), 0)
	res.setLayer("proc.alloc_kb_per_op", float64(now.TotalAlloc-p.ms.TotalAlloc)/1024/float64(ops), 0)
	res.setLayer("proc.gc_cycles", float64(now.NumGC-p.ms.NumGC), 0)
	res.setLayer("proc.gc_pause_ms", float64(now.PauseTotalNs-p.ms.PauseTotalNs)/1e6, 0)
	res.setLayer("proc.cpu_s", busyClock().Seconds()-p.cpu, 0)
}
