// Command perfbench is the repository's end-to-end benchmark. It runs one
// seeded workload through the program's real entry points and prints
// every metric by name and unit, then, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload grid|serve-hot|serve-ingest \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it makes one untraced and one traced run of the workload
// and reports per-layer metrics from spans recorded by its own wrappers
// around each module's public entry points. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"factcheck/internal/core"
)

// options are the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// workDir holds the run's result stores and span dumps; it lies
	// inside the checkout the benchmark runs from.
	workDir string
	// small selects the miniature test world for the package's own
	// tests; the grid's reference digest is then not checked.
	small bool
}

// config is the benchmark configuration every workload starts from: the
// full world at gridScale, with grid parallelism nproc.
func (o options) config() core.Config {
	if o.small {
		cfg := core.TestConfig()
		cfg.Parallelism = nproc()
		return cfg
	}
	return core.Config{Scale: gridScale, Parallelism: nproc()}
}

// metric is one reported figure. n is its sample count (0 when it is a
// count or ratio rather than a statistic over samples).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// report is one run's outcome.
type report struct {
	correct   bool
	attempted int64
	failed    int64 // failed + refused operations
	metrics   map[string]metric
	notes     []string
	// unobserved names metrics the run cannot see; they read
	// notObservedValue.
	unobserved map[string]bool
}

func newReport() *report {
	return &report{correct: true, metrics: map[string]metric{}, unobserved: map[string]bool{}}
}

// notObservedValue is what the JSON result holds for a per-layer metric
// the run cannot see. The result must carry every declared metric, and a
// negative figure cannot be mistaken for a layer that did no work (0).
const notObservedValue = -1

// notObserved marks per-layer metrics the run cannot see: they are printed
// as not observed and read notObservedValue in the JSON result.
func (r *report) notObserved(names ...string) {
	for _, n := range names {
		r.set(n, notObservedValue, perLayerUnits[n], 0, "")
		r.unobserved[n] = true
	}
}

func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// fail marks the run incorrect and records why.
func (r *report) fail(format string, args ...any) {
	r.correct = false
	r.notes = append(r.notes, "FAIL: "+fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var rep *report
	switch o.workload {
	case "grid":
		if o.trace {
			rep, err = gridTraced(o)
		} else {
			rep, err = gridUntraced(o)
		}
	default:
		w := serveWorkloads[o.workload]
		if o.trace {
			rep, err = serveTraced(o, w)
		} else {
			rep, err = serveUntraced(o, w)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.trace {
		fillIdleLayers(rep)
	} else if _, ok := rep.metrics["peak_rss_mb"]; !ok {
		rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "VmHWM of this process")
	}
	if err := writeReport(stdout, o, rep); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "grid, serve-hot or serve-ingest")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "seconds to measure")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if _, ok := serveWorkloads[o.workload]; !ok && o.workload != "grid" {
		return o, fmt.Errorf("unknown workload %q (want grid, serve-hot or serve-ingest)", o.workload)
	}
	if o.seconds < 1 {
		return o, errors.New("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	o.trace = *trace == 1
	o.workDir = filepath.Join(".bench_build", "perfbench")
	return o, nil
}

// writeReport prints every metric with its unit and sample count, then the
// JSON result line.
func writeReport(w io.Writer, o options, rep *report) error {
	bw := bufio.NewWriter(w)
	mode := "untraced"
	if o.trace {
		mode = "traced"
	}
	fmt.Fprintf(bw, "perfbench %s seed=%d seconds=%d %s\n", o.workload, o.seed, o.seconds, mode)
	for _, n := range rep.notes {
		fmt.Fprintln(bw, "  "+n)
	}
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.metrics[name]
		if rep.unobserved[name] {
			fmt.Fprintf(bw, "  %-34s %14s (%v in the JSON result)\n", name, "not observed", notObservedValue)
			continue
		}
		line := fmt.Sprintf("  %-34s %14s %-6s", name, strconv.FormatFloat(m.Value, 'g', 7, 64), m.Unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(bw, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(bw, "  %-34s %14s %-6s attempted=%d\n", "failed_ratio",
		strconv.FormatFloat(ratio(float64(rep.failed), float64(rep.attempted)), 'g', 7, 64), "ratio", rep.attempted)
	result, err := resultMetrics(o, rep)
	if err != nil {
		bw.Flush()
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct, max(rep.attempted, 1), rep.failed, result})
	if err != nil {
		return err
	}
	bw.Write(line)
	bw.WriteString("\n")
	return bw.Flush()
}

// resultMetrics picks the metrics of the JSON result line: every declared
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one, and nothing else. A declared metric the run did not measure
// is an error, so no result line goes out without it.
func resultMetrics(o options, rep *report) (map[string]metric, error) {
	names := declaredEndToEnd
	if o.trace {
		names = make([]string, 0, len(perLayerUnits))
		for name := range perLayerUnits {
			names = append(names, name)
		}
	}
	out := make(map[string]metric, len(names))
	var missing []string
	for _, name := range names {
		m, ok := rep.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out[name] = m
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("workload %s did not measure %s", o.workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// peakRSSMiB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	gcCycles, allocBytes uint64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:   s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64(),
	}
}

// setRuntimeDeltas reports the Go runtime's work between two readings:
// GC CPU as a share of the CPU time available to the process, bytes
// allocated per operation, and GC cycles.
func setRuntimeDeltas(rep *report, a, b runtimeSample, ops int64) {
	rep.set("go.gc_cpu_ratio", ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "ratio", 0, "")
	rep.set("go.alloc_bytes_per_op", ratio(float64(b.allocBytes-a.allocBytes), float64(ops)), "B", 0, "")
	rep.set("go.gc_cycles", float64(b.gcCycles-a.gcCycles), "count", 0, "")
}

// cpuTime returns the CPU seconds (user + system) the process has used.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// nproc is the parallelism of the grid and the connection cap of the load
// generator.
func nproc() int { return runtime.NumCPU() }
