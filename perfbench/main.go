// Command perfbench is the repository's benchmark: one command that runs a
// named workload against the routing stack, checks its outputs, and prints
// every metric by name and unit. Each layer is driven from outside through
// its exported functions and timed at that boundary; no program code is
// changed for measurement.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload serve-churn --seed 1 --seconds 26 --trace 0
//
// With --trace 0 the final JSON line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run, and the span
// file plus a per-layer self-time summary are written under --out. The
// process exits 1 on any failed output check or exact-count mismatch.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"

	"disco/internal/parallel"
)

// busyProcs is the number of goroutines allowed to be busy at once: the
// benchmark pins GOMAXPROCS to it so runs on larger machines measure the
// same shape.
const busyProcs = 2

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	n        int    // topology size; 0 selects the workload's default (the self-test shrinks it)
	out      string // directory for span files and count records
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named benchmark workload.
type workload struct {
	name     string
	defaultN int
	run      func(cfg config, rep *report) error
}

var workloads = []workload{
	{name: "serve-churn", defaultN: 4096, run: runServeChurn},
	{name: "stretch-sweep", defaultN: 8192, run: runStretchSweep},
	{name: "control-plane", defaultN: 256, run: runControlPlane},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve-churn, stretch-sweep or control-plane")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: every input is generated from it")
	flag.IntVar(&cfg.seconds, "seconds", 26, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics and a span file")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench", "directory for span files and count records")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := rep.result(cfg.trace)
	rep.printHuman(os.Stdout, cfg.trace)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its report. Errors are
// environment or argument problems; failed output checks are recorded in
// the report instead.
func run(cfg config) (*report, error) {
	w, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.n == 0 {
		cfg.n = w.defaultN
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, fmt.Errorf("create output directory: %w", err)
	}
	runtime.GOMAXPROCS(busyProcs)
	parallel.SetWorkers(busyProcs)
	rep := newReport(cfg)
	if err := w.run(cfg, rep); err != nil {
		return nil, err
	}
	rep.guardCounts(cfg)
	rep.perLayer("runtime.peak_rss_mb", peakRSSMB())
	if cfg.trace {
		if err := rep.tr.write(cfg); err != nil {
			return nil, err
		}
		rep.perLayer("trace.spans", float64(rep.tr.count()))
	}
	rep.complete()
	return rep, nil
}

// report collects one run's metrics, checks and exact counts.
type report struct {
	workload  string
	tr        *tracer
	e2e       map[string]metric
	layer     map[string]metric
	named     map[string]metric // workload-specific names, readable report only
	counts    map[string]int64
	attempted int64
	failed    int64
	failures  []string
	notes     []string
}

func newReport(cfg config) *report {
	return &report{
		workload: cfg.workload,
		tr:       newTracer(cfg.trace),
		e2e:      map[string]metric{},
		layer:    map[string]metric{},
		named:    map[string]metric{},
		counts:   map[string]int64{},
	}
}

func (r *report) endToEnd(name string, v float64) {
	r.e2e[name] = metric{v, mustUnit(endToEndUnits, name)}
}
func (r *report) perLayer(name string, v float64) {
	r.layer[name] = metric{v, mustUnit(perLayerUnits, name)}
}

// workloadMetric records a metric under the name it has on one workload
// (query_qps, event_p50_ms, converge_s, ...). The result line carries only
// the shared end-to-end names; the readable report prints both.
func (r *report) workloadMetric(name, unit string, v float64) {
	r.named[name] = metric{v, unit}
}

// mustUnit returns a catalogued metric's unit; an uncatalogued name is a
// bug in the benchmark.
func mustUnit(list []metricUnit, name string) string {
	u, ok := unitOf(list, name)
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	return u
}

// complete fills the per-layer metrics of layers the workload did not
// exercise with 0 and fails the run if an end-to-end metric is missing.
func (r *report) complete() {
	for _, m := range perLayerUnits {
		if _, ok := r.layer[m.name]; !ok {
			r.layer[m.name] = metric{0, m.unit}
		}
	}
	for _, m := range endToEndUnits {
		v, ok := r.e2e[m.name]
		r.check(ok && v.Value > 0, "end-to-end metric %s missing or not positive", m.name)
	}
}

// count records an exact count: it must repeat on every run of one seed.
// A count recorded twice in one run must agree with itself.
func (r *report) count(name string, v int64) {
	if old, ok := r.counts[name]; ok && old != v {
		r.failf("count %s: %d, earlier in this run %d", name, v, old)
	}
	r.counts[name] = v
}

// check counts one output check and records it if it failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf(format, args...))
		}
	}
}

// addChecks merges checks made off the report's goroutine: attempted
// checks of which fails lists the failed ones.
func (r *report) addChecks(attempted int64, fails []string) {
	r.attempted += attempted - int64(len(fails))
	for _, f := range fails {
		r.failf("%s", f)
	}
}

// failf records one failed check.
func (r *report) failf(format string, args ...any) { r.check(false, format, args...) }

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result assembles the final JSON object: the end-to-end metrics, or the
// per-layer metrics of a traced run.
func (r *report) result(trace bool) result {
	ms := r.e2e
	if trace {
		ms = r.layer
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: ms}
}

// printHuman writes the readable report: every metric with its unit, the
// counts, notes and the first failed checks.
func (r *report) printHuman(f *os.File, trace bool) {
	fmt.Fprintf(f, "workload %s\n", r.workload)
	pct := 0.0
	if r.attempted > 0 {
		pct = 100 * float64(r.failed) / float64(r.attempted)
	}
	r.workloadMetric("failed_pct", "%", pct)
	for _, sec := range []struct {
		title string
		ms    map[string]metric
	}{{"end-to-end", r.e2e}, {"workload names", r.named}, {"per-layer", r.layer}} {
		if sec.title == "per-layer" && !trace {
			continue
		}
		fmt.Fprintf(f, "  %s:\n", sec.title)
		for _, k := range sortedKeys(sec.ms) {
			fmt.Fprintf(f, "    %-34s %14.6g %s\n", k, sec.ms[k].Value, sec.ms[k].Unit)
		}
	}
	if len(r.counts) > 0 {
		fmt.Fprintf(f, "  exact counts:\n")
		for _, k := range sortedKeys(r.counts) {
			fmt.Fprintf(f, "    %-34s %14d\n", k, r.counts[k])
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(f, "  note: %s\n", n)
	}
	fmt.Fprintf(f, "  checks: %d attempted, %d failed (failed_pct %.4f %%)\n", r.attempted, r.failed, pct)
	for _, m := range r.failures {
		fmt.Fprintf(f, "  FAILED: %s\n", m)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// graphSeed is the seed of a workload's gi-th topology and its inputs.
func graphSeed(seed int64, gi int) int64 { return seed*1000 + int64(gi) }
