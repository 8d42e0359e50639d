package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"runtime"
	"strings"
)

// The ledger is a machine-written JSON file: host facts plus one record
// per run. -out appends to it, -compare reads two of them. Nothing in it
// is edited by hand; bench/baseline.json is one committed from real runs.

// hostFacts says where the numbers were measured. Every server, client
// and the program under test share one process on these cores.
type hostFacts struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPUModel   string `json:"cpu"`
	Colocated  bool   `json:"colocated"`
}

// runRecord is one invocation: every workload it ran, keyed by name
// (traced runs as "<name>+trace").
type runRecord struct {
	Time      string             `json:"time"`
	Commit    string             `json:"commit"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Smoke     bool               `json:"smoke,omitempty"`
	Workloads map[string]*result `json:"workloads"`
}

type ledger struct {
	Host hostFacts   `json:"host"`
	Runs []runRecord `json:"runs"`
}

func currentHost() hostFacts {
	h := hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Colocated: true}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

// appendRun adds rec to the ledger at path, creating it if needed. Host
// facts are those of the latest run.
func appendRun(path string, rec runRecord) error {
	l, err := readLedger(path)
	if errors.Is(err, fs.ErrNotExist) {
		l = &ledger{}
	} else if err != nil {
		return err
	}
	l.Host = currentHost()
	l.Runs = append(l.Runs, rec)
	data, err := json.MarshalIndent(l, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// medians collects, per "workload metric", the median over a ledger's
// untraced runs.
func (l *ledger) medians() map[string]float64 {
	samples := map[string][]float64{}
	for _, run := range l.Runs {
		for w, res := range run.Workloads {
			if strings.HasSuffix(w, "+trace") {
				continue
			}
			for n, m := range res.Metrics {
				samples[w+" "+n] = append(samples[w+" "+n], m.Value)
			}
		}
	}
	out := make(map[string]float64, len(samples))
	for k, xs := range samples {
		out[k] = median(xs)
	}
	return out
}

// runCompare prints, for every end-to-end metric both ledgers hold, how
// much B's median is worse than A's against the metric's bound, and
// returns non-zero when any metric is past its bound.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	var sides [2]*ledger
	for i, path := range []string{pathA, pathB} {
		l, err := readLedger(path)
		if err == nil && len(l.Runs) == 0 {
			err = fmt.Errorf("%s holds no runs", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "cpd-bench:", err)
			return 2
		}
		sides[i] = l
	}
	a, b := sides[0], sides[1]
	ma, mb := a.medians(), b.medians()
	fmt.Fprintf(stdout, "%-13s %-20s %14s %14s %9s %7s\n", "workload", "metric", fmt.Sprintf("A (%d runs)", len(a.Runs)), fmt.Sprintf("B (%d runs)", len(b.Runs)), "worse by", "bound")
	past, compared := 0, 0
	for _, w := range workloadOrder {
		defs := append(append([]metricDef(nil), contractMetrics...), workloadMetrics[w]...)
		for _, d := range defs {
			va, okA := ma[w+" "+d.name]
			vb, okB := mb[w+" "+d.name]
			if !okA || !okB || va == 0 {
				continue
			}
			compared++
			worse := (vb - va) / va
			if d.better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.bound {
				verdict = "  REGRESSION"
				past++
			}
			fmt.Fprintf(stdout, "%-13s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", w, d.name, va, vb, worse*100, d.bound*100, verdict)
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "cpd-bench: the two files share no end-to-end metric")
		return 2
	}
	if past > 0 {
		fmt.Fprintf(stdout, "%d metric(s) past their bound\n", past)
		return 1
	}
	fmt.Fprintln(stdout, "every metric within its bound")
	return 0
}
