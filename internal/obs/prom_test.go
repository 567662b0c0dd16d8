package obs

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func renderTestRegistry() (string, error) {
	r := NewRegistry()
	r.Histogram("layer", "lru").Observe(800 * time.Nanosecond)
	r.Histogram("layer", "lru").Observe(3 * time.Microsecond)
	r.Histogram("layer", "verify").Observe(2 * time.Millisecond)
	r.Histogram("endpoint", "verify").Observe(5 * time.Millisecond)
	r.Histogram("endpoint", "empty") // registered, never observed

	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("factcheck_requests_total", "Requests admitted.", 42)
	p.Gauge("factcheck_cache_entries", "Verdict LRU entries.", 17)
	p.Info("factcheck_build_info", "Build identity.", "go_version", "go1.24", "service", "factcheckd")
	r.WriteProm(p)
	return b.String(), p.Err()
}

func TestWritePromRendersAndLints(t *testing.T) {
	out, err := renderTestRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE factcheck_requests_total counter",
		"factcheck_requests_total 42",
		"factcheck_cache_entries 17",
		`factcheck_build_info{go_version="go1.24",service="factcheckd"} 1`,
		"# TYPE factcheck_layer_latency_seconds histogram",
		`factcheck_layer_latency_seconds_bucket{layer="lru",le="+Inf"} 2`,
		`factcheck_layer_latency_seconds_count{layer="lru"} 2`,
		`factcheck_layer_latency_seconds_count{layer="verify"} 1`,
		"# TYPE factcheck_endpoint_latency_seconds histogram",
		`factcheck_endpoint_latency_seconds_count{endpoint="verify"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, `"empty"`) {
		t.Error("never-observed histogram leaked into exposition")
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("own exposition fails lint: %v\n%s", err, out)
	}

	// Deterministic rendering: same registry, same bytes.
	again, err := renderTestRegistry()
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Error("exposition not deterministic across renders")
	}
}

func TestLintCatchesViolations(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no type", "some_metric 1\n"},
		{"bad name", "# TYPE 9bad counter\n9bad 1\n"},
		{"bad value", "# TYPE m counter\nm notanumber\n"},
		{"negative counter", "# TYPE m counter\nm -3\n"},
		{"duplicate series", "# TYPE m counter\nm 1\nm 2\n"},
		{"bad type", "# TYPE m widget\nm 1\n"},
		{"unquoted label", "# TYPE m gauge\nm{l=x} 1\n"},
		{"bucket without le", "# TYPE h histogram\nh_bucket{layer=\"a\"} 1\nh_count{layer=\"a\"} 1\n"},
		{"no inf bucket", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n"},
		{"count mismatch", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 3\n"},
		{"decreasing cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n"},
		{"le not increasing", "# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n"},
		{"infinite counter", "# TYPE m counter\nm +Inf\n"},
		{"fractional count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1.5\n"},
		{"fractional bucket", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1.5\nh_count 1.5\n"},
		{"count without buckets", "# TYPE h histogram\nh_count 0\n"},
		{"NaN le", "# TYPE h histogram\nh_bucket{le=\"NaN\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n"},
		{"Inf le spelling", "# TYPE h histogram\nh_bucket{le=\"Inf\"} 1\nh_count 1\n"},
		{"bad timestamp", "# TYPE m gauge\nm 1 soon\n"},
		{"TYPE not after a bare #", "#x TYPE m counter\nm 1\n"},
	}
	for _, c := range cases {
		if err := Lint(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: lint accepted invalid exposition", c.name)
		}
	}
	valid := "# HELP m good\n# TYPE m gauge\nm{a=\"x\",b=\"y\"} 1.5\n" +
		"# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 0.7\nh_count 2\n"
	if err := Lint(strings.NewReader(valid)); err != nil {
		t.Errorf("lint rejected valid exposition: %v", err)
	}
}

// TestScrapeReturnsSeries: Scrape keys each accepted sample by name, or by
// name{labels} as written, and parses the daemon's own exposition
// (testdata/metricsz.txt is an excerpt of a factcheckd /metricsz body
// captured after a faulted consensus and verify burst).
func TestScrapeReturnsSeries(t *testing.T) {
	out, err := renderTestRegistry()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Scrape(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"factcheck_requests_total": 42,
		"factcheck_cache_entries":  17,
		`factcheck_build_info{go_version="go1.24",service="factcheckd"}`: 1,
		`factcheck_layer_latency_seconds_bucket{layer="lru",le="+Inf"}`:  2,
		`factcheck_layer_latency_seconds_count{layer="lru"}`:             2,
		`factcheck_endpoint_latency_seconds_count{endpoint="verify"}`:    1,
	} {
		if v, ok := got[key]; !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", key, v, ok, want)
		}
	}

	body, err := os.ReadFile("testdata/metricsz.txt")
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := Scrape(strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("captured /metricsz excerpt: %v", err)
	}
	if daemon["factcheck_retries_total"] <= 0 {
		t.Errorf("captured body lost factcheck_retries_total: %v", daemon["factcheck_retries_total"])
	}
}

// FuzzScrape: the exposition parser reads network input (loadgen scrapes
// the daemon's /metricsz), so it must never panic, and whatever it accepts
// must satisfy the invariants its callers rely on: every counter is a
// finite non-negative integer, and every histogram's _count equals its
// +Inf bucket in the returned map.
func FuzzScrape(f *testing.F) {
	body, err := os.ReadFile("testdata/metricsz.txt")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(body))
	if out, err := renderTestRegistry(); err == nil {
		f.Add(out)
	}
	for _, seed := range []string{
		"# TYPE m counter\nm -1\n",
		"# TYPE m counter\nm 1e400\n",
		"# TYPE m gauge\nm{l=\"x\",l2=\"a,b\"} NaN 17\n",
		"# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n",
		"# TYPE h histogram\nh_count{le=\"+Inf\"} 1\nh_bucket{le=\"+Inf\"} 1\n",
		"m{a=\"}\"} 1\n",
		"# TYPE\n#\n\n# HELP\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := Scrape(strings.NewReader(in))
		if err != nil {
			return
		}
		types := map[string]string{}
		for _, line := range strings.Split(in, "\n") {
			if fs := strings.Fields(line); len(fs) == 4 && fs[0] == "#" && fs[1] == "TYPE" {
				types[fs[2]] = fs[3]
			}
		}
		// series splits an accepted key into its name and label body.
		series := func(key string) (string, string) {
			name, labels, _ := strings.Cut(key, "{")
			return name, strings.TrimSuffix(labels, "}")
		}
		infBuckets := map[string]float64{} // histogram name{labels sans le} -> +Inf bucket
		for key, v := range got {
			name, labels := series(key)
			if types[name] == "counter" && (v < 0 || v != math.Trunc(v) || math.IsInf(v, 0)) {
				t.Fatalf("accepted counter %s = %v", key, v)
			}
			base, ok := strings.CutSuffix(name, "_bucket")
			if le, _ := labelValue(labels, "le"); ok && types[base] == "histogram" && le == "+Inf" {
				infBuckets[base+"{"+stripLabel(labels, "le")+"}"] = v
			}
		}
		for key, v := range got {
			name, labels := series(key)
			base, ok := strings.CutSuffix(name, "_count")
			if !ok || types[base] != "histogram" {
				continue
			}
			if inf, ok := infBuckets[base+"{"+stripLabel(labels, "le")+"}"]; !ok || inf != v {
				t.Fatalf("accepted %s = %v but its +Inf bucket is %v (present %v)", key, v, inf, ok)
			}
		}
	})
}
