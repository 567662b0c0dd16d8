package main

import (
	"encoding/json"
	"os"
	"testing"

	"factcheck/internal/search"
)

func TestTracedSearcherForwardsOptionalInterfaces(t *testing.T) {
	var s search.Searcher = tracedSearcher{}
	if _, ok := s.(search.Warmer); !ok {
		t.Error("tracedSearcher hides search.Warmer")
	}
	if _, ok := s.(search.EvidenceFetcher); !ok {
		t.Error("tracedSearcher hides search.EvidenceFetcher")
	}
}

func smallOptions(t *testing.T, workload string) options {
	return options{workload: workload, seed: 3, seconds: 1, small: true, workDir: t.TempDir()}
}

// Each workload's traced run must produce the same output digest as its
// untraced run (the traced runs fail themselves otherwise) and must report
// every per-layer metric. The grid sees every layer below the service;
// serve-ingest's service computes verdicts, so its in-service layers are
// not observed and read notObservedValue.
func TestTracedRunsMatchUntraced(t *testing.T) {
	for _, w := range []string{"grid", "serve-hot", "serve-ingest"} {
		t.Run(w, func(t *testing.T) {
			o := smallOptions(t, w)
			o.trace = true
			var rep *report
			var err error
			if w == "grid" {
				rep, err = gridTraced(o)
			} else {
				rep, err = serveTraced(o, serveWorkloads[w])
			}
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct || rep.failed != 0 {
				t.Fatalf("traced run failed: %v", rep.notes)
			}
			fillIdleLayers(rep)
			unobserved := map[string]bool{}
			if w == "serve-ingest" {
				for _, name := range inServiceLayers {
					unobserved[name] = true
				}
			}
			got, err := resultMetrics(o, rep)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(perLayerUnits) {
				t.Errorf("result holds %d metrics, want the %d per-layer ones", len(got), len(perLayerUnits))
			}
			for name := range perLayerUnits {
				m, ok := got[name]
				switch {
				case !ok:
					t.Errorf("per-layer metric %s missing", name)
				case unobserved[name] != (m.Value == notObservedValue):
					t.Errorf("per-layer metric %s = %v, not observed: %v", name, m.Value, unobserved[name])
				}
			}
			if v := rep.metrics["trace.unattributed_ratio"].Value; v < 0 || v > 1 {
				t.Errorf("unattributed ratio %v out of [0, 1]", v)
			}
		})
	}
}

type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// Untraced runs print only known end-to-end metrics, each with its unit
// and a positive value, and the result line of every workload holds
// exactly the metrics BENCHMARK.json declares.
func TestUntracedRunsReportDeclaredMetrics(t *testing.T) {
	declared := readBenchmarkJSON(t).EndToEnd
	for _, w := range []string{"grid", "serve-hot", "serve-ingest"} {
		o := smallOptions(t, w)
		var rep *report
		var err error
		if w == "grid" {
			rep, err = gridUntraced(o)
		} else {
			rep, err = serveUntraced(o, serveWorkloads[w])
		}
		if err != nil {
			t.Fatal(err)
		}
		if !rep.correct || rep.failed != 0 {
			t.Fatalf("%s: %v", w, rep.notes)
		}
		for name, m := range rep.metrics {
			if unit, ok := endToEndUnits[name]; !ok || unit != m.Unit {
				t.Errorf("%s reports %s in %s, not a known end-to-end metric", w, name, m.Unit)
			}
			// sustained_rps is 0 when no probe passes, as in slowed builds
			// such as -race; every other metric is positive.
			if m.Value < 0 || m.Value == 0 && name != "sustained_rps" {
				t.Errorf("%s: %s = %v, want > 0", w, name, m.Value)
			}
		}
		rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "")
		got, err := resultMetrics(o, rep)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(declared) {
			t.Errorf("%s: result holds %d metrics, BENCHMARK.json declares %d", w, len(got), len(declared))
		}
		for _, m := range declared {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: result lacks the declared metric %s (%s)", w, m.Name, m.Unit)
			}
		}
	}
}

// A result line is never printed without a declared metric.
func TestResultMetricsRequiresDeclared(t *testing.T) {
	rep := newReport()
	rep.set("setup_s", 1, "s", 1, "")
	rep.set("peak_rss_mb", 1, "MiB", 0, "")
	if _, err := resultMetrics(options{workload: "serve-hot"}, rep); err == nil {
		t.Error("result without grid_verifications_per_s accepted")
	}
	rep.set("grid_verifications_per_s", 1, "1/s", 1, "")
	rep.set("sustained_rps", 1, "req/s", 0, "")
	got, err := resultMetrics(options{workload: "serve-hot"}, rep)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := got["sustained_rps"]; ok || len(got) != len(declaredEndToEnd) {
		t.Errorf("result holds %v, want only the declared metrics", got)
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(declaredEndToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json declares %d metrics, result lines hold %d", len(b.EndToEnd), len(declaredEndToEnd))
	}
	for i, m := range b.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit || i < len(declaredEndToEnd) && declaredEndToEnd[i] != m.Name {
			t.Errorf("end_to_end: %s (%s) is not a metric the result line holds", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(perLayerUnits) {
		t.Errorf("per_layer: BENCHMARK.json declares %d metrics, traced runs print %d", len(b.PerLayer), len(perLayerUnits))
	}
	for _, m := range b.PerLayer {
		if u, ok := perLayerUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("per_layer: %s (%s) is not a metric traced runs print", m.Name, m.Unit)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := serveWorkloads[w.Name]; !ok && w.Name != "grid" {
			t.Errorf("unknown workload %s", w.Name)
		}
	}
}
