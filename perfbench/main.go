// Command perfbench is the repository's benchmark. One invocation runs
// one workload for a fixed time and prints, as the last line of its
// standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics BENCHMARK.json
// lists; with -trace 1 they are its per-layer metrics, measured by
// timing calls into the library's exported layers from outside and by
// reading the hssort.Stats every sort returns. Every op's output is
// checked outside the timed span. Workloads, metrics and the layer map
// are described in BENCHMARK.json and perfbench/layers.json.
//
// Build and run it through perfbench/run.py from the repository root:
//
//	python3 perfbench/run.py --workload bulk --seed 1 --seconds 28 --trace 0
package main

import (
	"bufio"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// sample is one reported metric: its value, unit and the number of
// measurements it summarizes.
type sample struct {
	value float64
	unit  string
	n     int
}

// report is what a workload run hands back to main.
type report struct {
	attempted, failed int64
	problems          []string // run-level check failures (counted in failed)
	metrics           map[string]sample
	// unbounded are figures printed and stored with the result but left
	// out of its metrics, because the host's noise moves them more than
	// any bound BENCHMARK.json may set.
	unbounded  map[string]sample
	keysPerOp  int64
	bytesPerOp int64
	ops        int64 // timed ops
}

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64, unit string, n int) {
	if r.metrics == nil {
		r.metrics = map[string]sample{}
	}
	r.metrics[name] = sample{v, unit, n}
}

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string            // checkout root: BENCHMARK.json lives here
	out      string            // directory for traces, run records and scratch files
	hssortd  string            // prebuilt daemon binary (serve workload)
	units    map[string]string // unit of every metric this mode reports, as BENCHMARK.json declares it
}

var workloads = map[string]func(options) (*report, error){
	"bulk":  func(o options) (*report, error) { return runInproc(o, bulkShape) },
	"wide":  func(o options) (*report, error) { return runInproc(o, wideShape) },
	"spill": func(o options) (*report, error) { return runInproc(o, spillShape) },
	"serve": runServe,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: bulk, wide, spill or serve")
	flag.Uint64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed loop in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "repository checkout root")
	flag.StringVar(&o.out, "out", "", "output directory (default <root>/.bench_build/perfbench)")
	flag.StringVar(&o.hssortd, "hssortd", "", "hssortd binary for the serve workload")
	flag.Parse()
	o.trace = trace == 1
	if o.out == "" {
		o.out = filepath.Join(o.root, ".bench_build", "perfbench")
	}
	if err := run(o, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options, trace int) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (valid: bulk, wide, spill, serve)", o.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d out of range (valid: 0, 1)", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds %g must be positive", o.seconds)
	}
	want, err := declaredMetrics(o.root, o.trace)
	if err != nil {
		return err
	}
	o.units = want
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var layers []layer
	if o.trace {
		if layers, err = layerMap(want); err != nil {
			return err
		}
	}
	rec := runRecord(o)
	fmt.Printf("# record: %s\n", mustJSON(rec))

	steal0, total0 := cpuTicks()
	rep, err := wl(o)
	if err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	steal1, total1 := cpuTicks()
	rec["cpu_steal_frac"] = ratio(steal1-steal0, total1-total0)
	// The declared metric set is the contract: a workload that reports
	// a different set is a benchmark bug, not a result.
	for name, unit := range want {
		s, ok := rep.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json but not measured", name)
		}
		if s.unit != unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", name, s.unit, unit)
		}
	}
	for name := range rep.metrics {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s measured but not declared in BENCHMARK.json", name)
		}
	}

	rec["keys_per_op"] = rep.keysPerOp
	rec["bytes_per_op"] = rep.bytesPerOp
	rec["ops"] = rep.ops
	fmt.Printf("# %s: %d ops timed, %d keys (%d bytes) per op; %.1f%% of CPU time stolen by the host during the run\n",
		o.workload, rep.ops, rep.keysPerOp, rep.bytesPerOp, 100*rec["cpu_steal_frac"].(float64))
	fmt.Printf("# failed_frac %.6f (%d of %d attempted)\n", ratio(float64(rep.failed), float64(rep.attempted)), rep.failed, rep.attempted)
	unbounded := map[string]any{}
	for _, name := range slices.Sorted(maps.Keys(rep.unbounded)) {
		s := rep.unbounded[name]
		fmt.Printf("# %-32s %14.6g %-9s (n=%d; not a bounded metric)\n", name, s.value, s.unit, s.n)
		unbounded[name] = map[string]any{"value": s.value, "unit": s.unit, "n": s.n}
	}
	rec["unbounded"] = unbounded
	for _, p := range rep.problems {
		fmt.Printf("# FAILURE: %s\n", p)
	}
	metrics := map[string]any{}
	for name, s := range rep.metrics {
		metrics[name] = map[string]any{"value": s.value, "unit": s.unit}
	}
	if layers == nil {
		names := make([]string, 0, len(rep.metrics))
		for name := range rep.metrics {
			names = append(names, name)
		}
		slices.Sort(names)
		layers = []layer{{Metrics: names}}
	}
	for _, l := range layers {
		if l.Layer != "" {
			fmt.Printf("# layer %s (%s) moves %s\n", l.Layer, l.Code, l.movesText())
		}
		for _, name := range l.Metrics {
			s := rep.metrics[name]
			fmt.Printf("#   %-30s %14.6g %-9s (n=%d)\n", name, s.value, s.unit, s.n)
		}
	}
	res := map[string]any{
		"correct":   rep.failed == 0 && rep.attempted > 0,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	}
	rec["result"] = res
	path := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	if err := os.WriteFile(path, append(mustJSON(rec), '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println(string(mustJSON(res)))
	return nil
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares for this mode.
func declaredMetrics(root string, trace bool) (map[string]string, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if trace {
		list = spec.PerLayer
	}
	want := map[string]string{}
	for _, m := range list {
		want[m.Name] = m.Unit
	}
	return want, nil
}

//go:embed layers.json
var layersJSON []byte

// layer is one entry of layers.json: a layer's per-layer metrics and
// the end-to-end metrics and workloads they should move.
type layer struct {
	Layer   string
	Code    string
	Metrics []string
	Moves   []struct {
		Metric    string
		Workloads []string
	}
	NoMove []string `json:"no_move"`
}

func (l layer) movesText() string {
	var parts []string
	for _, m := range l.Moves {
		parts = append(parts, m.Metric+" on "+strings.Join(m.Workloads, ", "))
	}
	if len(parts) == 0 {
		parts = []string{"nothing (reference figures)"}
	}
	if len(l.NoMove) > 0 {
		parts = append(parts, "not on "+strings.Join(l.NoMove, ", "))
	}
	return strings.Join(parts, "; ")
}

// layerMap parses layers.json and checks that it assigns every
// declared per-layer metric to exactly one layer, and nothing else.
func layerMap(declared map[string]string) ([]layer, error) {
	var m struct{ Layers []layer }
	if err := json.Unmarshal(layersJSON, &m); err != nil {
		return nil, fmt.Errorf("layers.json: %w", err)
	}
	seen := map[string]bool{}
	for _, l := range m.Layers {
		for _, name := range l.Metrics {
			if _, ok := declared[name]; !ok || seen[name] {
				return nil, fmt.Errorf("layers.json: metric %s is undeclared or listed twice", name)
			}
			seen[name] = true
		}
	}
	for name := range declared {
		if !seen[name] {
			return nil, fmt.Errorf("layers.json: per-layer metric %s belongs to no layer", name)
		}
	}
	return m.Layers, nil
}

// runRecord describes the machine and settings a result came from, so
// that numbers from different CPUs are not compared blindly.
func runRecord(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTicks returns the machine's steal and total CPU ticks from
// /proc/stat (zero where unavailable). Steal is time a virtual CPU was
// ready but the hypervisor ran something else: a run with high steal
// measured a noisy host, not the program.
func cpuTicks() (steal, total float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMiB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMiB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// resetPeakRSS restarts this process's VmHWM from its current resident
// set, so that the next read gives the peak of the span in between.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// latencyMetrics reports the median and p90 of per-op latencies. p90
// is unbounded: host CPU steal on a shared machine moves it by more
// than a quarter between runs of the same code.
func latencyMetrics(r *report, lat []float64) {
	r.set("latency_p50_ms", median(lat), "ms", len(lat))
	if r.unbounded == nil {
		r.unbounded = map[string]sample{}
	}
	r.unbounded["latency_p90_ms"] = sample{quantile(lat, 0.9), "ms", len(lat)}
}
