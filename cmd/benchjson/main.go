// Command benchjson converts `go test -bench` text output into a stable
// JSON document, so CI can record benchmark runs as artefacts
// (BENCH_<n>.json) and the repo accumulates a machine-readable perf
// trajectory instead of prose claims.
//
// Usage:
//
//	go test -bench . -benchtime 3x ./... | benchjson -o BENCH.json
//	curl -s localhost:8095/metricsz | benchjson -promlint
//
// Custom b.ReportMetric units (p50_ms, p99_ms, ...) are carried into each
// benchmark's "metrics" map, so latency summaries reported by the serving
// benches land in the JSON artefact alongside ns/op.
//
// -promlint switches the tool into a Prometheus-exposition linter: the
// input (stdin, or a file named after the flag) is parsed under the strict
// internal/obs text-format rules and any violation fails the run — CI's
// gate that /metricsz stays scrapeable.
//
// Besides the raw per-benchmark numbers, the converter derives speedup
// ratios between comparable variants of one benchmark group — the shape of
// this repo's differential perf benches. A variant is recognised either as
// a leaf sub-benchmark (BenchmarkRerankDocs/sparse) or as a camel-case
// suffix on the top-level name (BenchmarkSearchIndexed/corpus10x), so
// scale-suffixed groups pair up too. Within a family every lower-ranked
// variant is a baseline for every higher-ranked one: dense < sparse,
// scan < indexed and mutexed < snapshot.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"factcheck/internal/obs"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name without the -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Procs is the GOMAXPROCS suffix (1 when absent).
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present only under -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics collects custom b.ReportMetric pairs (e.g. "p99_ms") — any
	// value-unit column beyond the three standard ones.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Speedup is a derived baseline-vs-variant ratio for one benchmark group.
type Speedup struct {
	Benchmark  string  `json:"benchmark"`
	Baseline   string  `json:"baseline"`
	Variant    string  `json:"variant"`
	BaselineNs float64 `json:"baseline_ns_per_op"`
	VariantNs  float64 `json:"variant_ns_per_op"`
	// Ratio is baseline / variant: >1 means the variant is faster.
	Ratio float64 `json:"ratio"`
}

// Doc is the emitted document.
type Doc struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
	Speedups   []Speedup   `json:"speedups,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	outPath, lintFile := "", ""
	promlint := false
	for i := 0; i < len(args); i++ {
		switch {
		case args[i] == "-o":
			if i+1 >= len(args) {
				return fmt.Errorf("-o needs a file argument")
			}
			i++
			outPath = args[i]
		case args[i] == "-promlint":
			promlint = true
		case promlint && lintFile == "" && !strings.HasPrefix(args[i], "-"):
			lintFile = args[i]
		default:
			return fmt.Errorf("unknown argument %q (usage: benchjson [-o FILE] < bench-output, or benchjson -promlint [FILE] < exposition)", args[i])
		}
	}
	if promlint {
		r := in
		if lintFile != "" {
			f, err := os.Open(lintFile)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		if err := obs.Lint(r); err != nil {
			return fmt.Errorf("promlint: %w", err)
		}
		fmt.Fprintln(out, "promlint: ok")
		return nil
	}
	doc, err := Parse(in)
	if err != nil {
		return err
	}
	if len(doc.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if outPath != "" {
		return os.WriteFile(outPath, enc, 0o644)
	}
	_, err = out.Write(enc)
	return err
}

// Parse reads `go test -bench` output and builds the document.
func Parse(in io.Reader) (*Doc, error) {
	doc := &Doc{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if ok {
				doc.Benchmarks = append(doc.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	doc.Speedups = deriveSpeedups(doc.Benchmarks)
	return doc, nil
}

// parseLine parses one result line, e.g.
//
//	BenchmarkColdCell/sparse-4   5   55315806 ns/op   12 B/op   3 allocs/op
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return Benchmark{}, false
	}
	name, procs := splitProcs(f[0])
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Procs: procs, Iterations: iters}
	seen := false
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch f[i+1] {
		case "ns/op":
			b.NsPerOp = v
			seen = true
		case "B/op":
			b.BytesPerOp = ptr(v)
		case "allocs/op":
			b.AllocsPerOp = ptr(v)
		default:
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[f[i+1]] = v
		}
	}
	return b, seen
}

func ptr(v float64) *float64 { return &v }

// splitProcs strips the trailing -GOMAXPROCS suffix go test appends.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	p, err := strconv.Atoi(name[i+1:])
	if err != nil || p <= 0 {
		return name, 1
	}
	return name[:i], p
}

// variantFamilies ranks comparable benchmark variants. Within a family,
// every lower-ranked variant is a baseline for every higher-ranked one;
// variants from different families never pair.
var variantFamilies = [][]string{
	{"dense", "sparse"},
	{"scan", "indexed"},
	{"mutexed", "snapshot"},
}

// splitVariant extracts the variant from a benchmark name. Two spellings
// are recognised: a variant leaf sub-benchmark (BenchmarkRerankDocs/sparse
// -> group BenchmarkRerankDocs) and a camel-case suffix on the top-level
// segment (BenchmarkSearchIndexed/corpus10x -> group
// BenchmarkSearch/corpus10x), which is how scale-suffixed benchmarks keep
// their scale in the group key.
func splitVariant(name string) (group, variant string, ok bool) {
	if i := strings.LastIndex(name, "/"); i >= 0 {
		leaf := name[i+1:]
		for _, fam := range variantFamilies {
			for _, v := range fam {
				if leaf == v {
					return name[:i], v, true
				}
			}
		}
	}
	head, rest, _ := strings.Cut(name, "/")
	for _, fam := range variantFamilies {
		for _, v := range fam {
			suffix := strings.ToUpper(v[:1]) + v[1:]
			base, found := strings.CutSuffix(head, suffix)
			if !found || base == "" || base == "Benchmark" {
				continue
			}
			if rest != "" {
				base += "/" + rest
			}
			return base, v, true
		}
	}
	return "", "", false
}

// deriveSpeedups emits a ratio for every (baseline, variant) pair of one
// family present under the same benchmark group (first occurrence wins when
// a -count run repeats lines). Runs at different GOMAXPROCS never pair:
// a -cpu 1,8 sweep yields one ratio per proc count, with the proc count
// suffixed onto the group name (BenchmarkSearchWarmParallel-8) whenever a
// group spans more than one — a single-proc run keeps the bare name.
func deriveSpeedups(bs []Benchmark) []Speedup {
	groups := map[string]map[int]map[string]float64{}
	var order []string
	for _, b := range bs {
		g, v, ok := splitVariant(b.Name)
		if !ok {
			continue
		}
		byProcs := groups[g]
		if byProcs == nil {
			byProcs = map[int]map[string]float64{}
			groups[g] = byProcs
			order = append(order, g)
		}
		m := byProcs[b.Procs]
		if m == nil {
			m = map[string]float64{}
			byProcs[b.Procs] = m
		}
		if _, dup := m[v]; !dup {
			m[v] = b.NsPerOp
		}
	}
	sort.Strings(order)
	var out []Speedup
	for _, g := range order {
		byProcs := groups[g]
		procs := make([]int, 0, len(byProcs))
		for p := range byProcs {
			procs = append(procs, p)
		}
		sort.Ints(procs)
		for _, p := range procs {
			m := byProcs[p]
			name := g
			if len(byProcs) > 1 {
				name = fmt.Sprintf("%s-%d", g, p)
			}
			for _, fam := range variantFamilies {
				for i, base := range fam {
					for _, v := range fam[i+1:] {
						bn, vn := m[base], m[v]
						if bn > 0 && vn > 0 {
							out = append(out, Speedup{
								Benchmark: name, Baseline: base, Variant: v,
								BaselineNs: bn, VariantNs: vn, Ratio: bn / vn,
							})
						}
					}
				}
			}
		}
	}
	return out
}
