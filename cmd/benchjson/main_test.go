package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: factcheck
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkColdCell/dense-4         	       5	 185017352 ns/op
BenchmarkColdCell/sparse-4        	       5	  55315806 ns/op
BenchmarkRerankDocs/dense-4       	       5	    605813 ns/op
BenchmarkRerankDocs/sparse-4      	       5	     45828 ns/op
BenchmarkOverlap-4                	  500000	      2436 ns/op	     448 B/op	       5 allocs/op
BenchmarkSearchIndexed/par1       	     200	     36000 ns/op
PASS
ok  	factcheck	2.740s
`

func TestParseSample(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Goos != "linux" || doc.Goarch != "amd64" || doc.CPU == "" {
		t.Errorf("header not parsed: %+v", doc)
	}
	if len(doc.Benchmarks) != 6 {
		t.Fatalf("parsed %d benchmarks, want 6", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Name != "BenchmarkColdCell/dense" || b.Procs != 4 || b.Iterations != 5 || b.NsPerOp != 185017352 {
		t.Errorf("first benchmark wrong: %+v", b)
	}
	ov := doc.Benchmarks[4]
	if ov.Name != "BenchmarkOverlap" || ov.BytesPerOp == nil || *ov.BytesPerOp != 448 ||
		ov.AllocsPerOp == nil || *ov.AllocsPerOp != 5 {
		t.Errorf("benchmem fields wrong: %+v", ov)
	}
	// par1 has no numeric procs suffix: name stays intact.
	if doc.Benchmarks[5].Name != "BenchmarkSearchIndexed/par1" || doc.Benchmarks[5].Procs != 1 {
		t.Errorf("par1 benchmark wrong: %+v", doc.Benchmarks[5])
	}
}

func TestDeriveSpeedups(t *testing.T) {
	doc, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Speedups) != 2 {
		t.Fatalf("derived %d speedups, want 2: %+v", len(doc.Speedups), doc.Speedups)
	}
	// Sorted by group name: ColdCell before RerankDocs. The lone
	// BenchmarkSearchIndexed/par1 has no scan sibling, so it yields no
	// pair.
	cc := doc.Speedups[0]
	if cc.Benchmark != "BenchmarkColdCell" || cc.Baseline != "dense" || cc.Variant != "sparse" {
		t.Fatalf("first speedup is %+v", cc)
	}
	if want := 185017352.0 / 55315806.0; cc.Ratio != want {
		t.Errorf("ColdCell ratio = %v, want %v", cc.Ratio, want)
	}
}

func TestSplitVariant(t *testing.T) {
	tests := []struct {
		name, group, variant string
		ok                   bool
	}{
		{"BenchmarkColdCell/dense", "BenchmarkColdCell", "dense", true},
		{"BenchmarkRerankDocs/sparse", "BenchmarkRerankDocs", "sparse", true},
		{"BenchmarkSearchScan/corpus10x", "BenchmarkSearch/corpus10x", "scan", true},
		{"BenchmarkSearchIndexed/corpus10x", "BenchmarkSearch/corpus10x", "indexed", true},
		{"BenchmarkSearchScan/corpus100x", "BenchmarkSearch/corpus100x", "scan", true},
		{"BenchmarkSearchIndexed/par1", "BenchmarkSearch/par1", "indexed", true},
		{"BenchmarkSearchIndexed", "BenchmarkSearch", "indexed", true},
		{"BenchmarkTopKWarm/sparse", "BenchmarkTopKWarm", "sparse", true},
		{"BenchmarkSearchWarmParallel/snapshot", "BenchmarkSearchWarmParallel", "snapshot", true},
		// Retired variants are no longer recognised.
		{"BenchmarkSearchPruned/corpus100x", "", "", false},
		{"BenchmarkTopKWarm/pruned", "", "", false},
		{"BenchmarkConsensusAdaptive/cold", "", "", false},
		{"BenchmarkDecide/eager", "", "", false},
		{"BenchmarkConsensus/lru-warm", "", "", false},
		{"BenchmarkOverlap", "", "", false},
		{"BenchmarkScan", "", "", false}, // bare "Benchmark" is not a group
		{"BenchmarkColdCell/other", "", "", false},
	}
	for _, tc := range tests {
		g, v, ok := splitVariant(tc.name)
		if g != tc.group || v != tc.variant || ok != tc.ok {
			t.Errorf("splitVariant(%q) = (%q, %q, %v), want (%q, %q, %v)",
				tc.name, g, v, ok, tc.group, tc.variant, tc.ok)
		}
	}
}

// TestDeriveSpeedupTriples: a leftover scan/indexed/pruned triple (the
// pruned path is retired) pairs only scan with indexed, once per corpus
// scale; the pruned lines pair with nothing.
func TestDeriveSpeedupTriples(t *testing.T) {
	const triple = `BenchmarkSearchScan/corpus1x-4      10   100000 ns/op
BenchmarkSearchIndexed/corpus1x-4   10    40000 ns/op
BenchmarkSearchPruned/corpus1x-4    10    20000 ns/op
BenchmarkSearchScan/corpus10x-4     10  1000000 ns/op
BenchmarkSearchIndexed/corpus10x-4  10   200000 ns/op
BenchmarkSearchPruned/corpus10x-4   10   100000 ns/op
BenchmarkTopKWarm/indexed-4        100    20000 ns/op	0 B/op	0 allocs/op
BenchmarkTopKWarm/pruned-4         100    10000 ns/op	0 B/op	0 allocs/op
`
	doc, err := Parse(strings.NewReader(triple))
	if err != nil {
		t.Fatal(err)
	}
	want := []Speedup{
		{"BenchmarkSearch/corpus10x", "scan", "indexed", 1000000, 200000, 5},
		{"BenchmarkSearch/corpus1x", "scan", "indexed", 100000, 40000, 2.5},
	}
	if len(doc.Speedups) != len(want) {
		t.Fatalf("derived %d speedups, want %d: %+v", len(doc.Speedups), len(want), doc.Speedups)
	}
	for i, w := range want {
		if doc.Speedups[i] != w {
			t.Errorf("speedup %d = %+v, want %+v", i, doc.Speedups[i], w)
		}
	}
}

// TestDeriveSpeedupProcsSweep: a -cpu 1,8 sweep of the mutexed/snapshot
// family derives one ratio per proc count, suffixing the group name so the
// single-stream and contended ratios never collapse into one pairing.
func TestDeriveSpeedupProcsSweep(t *testing.T) {
	const sweep = `BenchmarkSearchWarmParallel/mutexed       100   40000 ns/op
BenchmarkSearchWarmParallel/mutexed-8     100   80000 ns/op
BenchmarkSearchWarmParallel/snapshot      100   40000 ns/op
BenchmarkSearchWarmParallel/snapshot-8    100   20000 ns/op
`
	doc, err := Parse(strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	want := []Speedup{
		{"BenchmarkSearchWarmParallel-1", "mutexed", "snapshot", 40000, 40000, 1},
		{"BenchmarkSearchWarmParallel-8", "mutexed", "snapshot", 80000, 20000, 4},
	}
	if len(doc.Speedups) != len(want) {
		t.Fatalf("derived %d speedups, want %d: %+v", len(doc.Speedups), len(want), doc.Speedups)
	}
	for i, w := range want {
		if doc.Speedups[i] != w {
			t.Errorf("speedup %d = %+v, want %+v", i, doc.Speedups[i], w)
		}
	}
}

// TestDeriveSpeedupConsensusFamily: the retired serial/eager/adaptive
// consensus benches no longer form a family and derive no speedups, while
// the surviving families in the same input pair within themselves and
// never across families.
func TestDeriveSpeedupConsensusFamily(t *testing.T) {
	const lines = `BenchmarkConsensusSerial/cold-4     10   900000 ns/op
BenchmarkConsensusEager/cold-4      10   300000 ns/op
BenchmarkConsensusAdaptive/cold-4   10   150000 ns/op
BenchmarkConsensus/lru-warm-4      100    10000 ns/op
BenchmarkColdCell/dense-4             5      200 ns/op
BenchmarkColdCell/sparse-4            5      100 ns/op
BenchmarkRerankDocs/dense-4          10     3000 ns/op
BenchmarkRerankDocs/indexed-4        10     1000 ns/op
BenchmarkSearchScan/corpus1x-4       10   100000 ns/op
BenchmarkSearchIndexed/corpus1x-4    10    50000 ns/op
`
	doc, err := Parse(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	want := []Speedup{
		{"BenchmarkColdCell", "dense", "sparse", 200, 100, 2},
		{"BenchmarkSearch/corpus1x", "scan", "indexed", 100000, 50000, 2},
	}
	if len(doc.Speedups) != len(want) {
		t.Fatalf("derived %d speedups, want %d: %+v", len(doc.Speedups), len(want), doc.Speedups)
	}
	for i, w := range want {
		if doc.Speedups[i] != w {
			t.Errorf("speedup %d = %+v, want %+v", i, doc.Speedups[i], w)
		}
	}
}

// TestDeriveSpeedupFirstWins: -count reruns repeat lines; the first
// occurrence of each variant is the one recorded.
func TestDeriveSpeedupFirstWins(t *testing.T) {
	const repeated = `BenchmarkColdCell/dense-4    5   200 ns/op
BenchmarkColdCell/sparse-4   5   100 ns/op
BenchmarkColdCell/dense-4    5   999 ns/op
BenchmarkColdCell/sparse-4   5   999 ns/op
`
	doc, err := Parse(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Speedups) != 1 || doc.Speedups[0].Ratio != 2 {
		t.Fatalf("speedups = %+v, want one dense/sparse pair at ratio 2", doc.Speedups)
	}
}

func TestRunWritesFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := run([]string{"-o", out}, strings.NewReader(sample), nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Doc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.Benchmarks) != 6 || len(doc.Speedups) != 2 {
		t.Errorf("round-trip lost data: %d benchmarks, %d speedups", len(doc.Benchmarks), len(doc.Speedups))
	}
}

func TestRunStdout(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, strings.NewReader(sample), &buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("stdout output is not valid JSON")
	}
}

// TestParseCustomMetrics: b.ReportMetric columns land in the metrics map
// without disturbing the standard three.
func TestParseCustomMetrics(t *testing.T) {
	const line = `BenchmarkServeVerify/lru-4   1000   1200 ns/op   0.52 p99_ms   0.10 p50_ms   0 B/op   0 allocs/op
`
	doc, err := Parse(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) != 1 {
		t.Fatalf("parsed %d benchmarks, want 1", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.NsPerOp != 1200 || b.AllocsPerOp == nil || *b.AllocsPerOp != 0 {
		t.Errorf("standard fields wrong: %+v", b)
	}
	if b.Metrics["p99_ms"] != 0.52 || b.Metrics["p50_ms"] != 0.10 || len(b.Metrics) != 2 {
		t.Errorf("metrics map wrong: %v", b.Metrics)
	}
}

// TestPromlintMode: -promlint validates a Prometheus exposition from stdin
// or a file, and fails on a malformed one.
func TestPromlintMode(t *testing.T) {
	const valid = `# HELP factcheck_requests_total requests
# TYPE factcheck_requests_total counter
factcheck_requests_total 12
`
	var buf bytes.Buffer
	if err := run([]string{"-promlint"}, strings.NewReader(valid), &buf); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
	if !strings.Contains(buf.String(), "promlint: ok") {
		t.Errorf("missing ok line: %q", buf.String())
	}

	file := filepath.Join(t.TempDir(), "metrics.txt")
	if err := os.WriteFile(file, []byte(valid), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-promlint", file}, strings.NewReader("ignored"), &bytes.Buffer{}); err != nil {
		t.Fatalf("file mode rejected valid exposition: %v", err)
	}

	const invalid = "factcheck_requests_total 1\nfactcheck_requests_total 2\n"
	if err := run([]string{"-promlint"}, strings.NewReader(invalid), &bytes.Buffer{}); err == nil {
		t.Fatal("duplicate series passed -promlint")
	}
	if err := run([]string{"-promlint", filepath.Join(t.TempDir(), "missing")}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("missing lint file not reported")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-o"}, strings.NewReader(sample), nil); err == nil {
		t.Error("missing -o argument not rejected")
	}
	if err := run([]string{"--bogus"}, strings.NewReader(sample), nil); err == nil {
		t.Error("unknown flag not rejected")
	}
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Error("empty input not rejected")
	}
}
