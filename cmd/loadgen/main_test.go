package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"factcheck/internal/serve"
)

func testTargets() []target {
	return []target{
		{dataset: "FactBench", facts: []string{"fb-1", "fb-2", "fb-3", "fb-4"}},
		{dataset: "YAGO", facts: []string{"y-1", "y-2"}},
	}
}

func TestBuildPlanDeterministic(t *testing.T) {
	models := []string{"m1", "m2"}
	for _, mix := range []string{"uniform", "zipf", "batch", "consensus", "ingest"} {
		a, err := buildPlan(mix, 7, testTargets(), models, "DKA", 50, 8, 1.2, 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		b, err := buildPlan(mix, 7, testTargets(), models, "DKA", 50, 8, 1.2, 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same seed produced different plans", mix)
		}
		c, err := buildPlan(mix, 8, testTargets(), models, "DKA", 50, 8, 1.2, 8)
		if err != nil {
			t.Fatalf("%s: %v", mix, err)
		}
		if reflect.DeepEqual(a, c) {
			t.Fatalf("%s: different seeds produced identical plans", mix)
		}
	}
}

func TestBuildPlanShapes(t *testing.T) {
	models := []string{"m1"}
	uni, err := buildPlan("uniform", 1, testTargets(), models, "DKA", 10, 4, 1.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(uni) != 10 {
		t.Fatalf("uniform: %d jobs, want 10", len(uni))
	}
	for _, j := range uni {
		if len(j.reqs) != 1 {
			t.Fatalf("uniform job size %d, want 1", len(j.reqs))
		}
	}
	bat, err := buildPlan("batch", 1, testTargets(), models, "DKA", 10, 4, 1.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(bat) != 3 || len(bat[0].reqs) != 4 || len(bat[2].reqs) != 2 {
		t.Fatalf("batch shape: %d jobs (sizes %d,%d,%d), want 3 jobs of 4,4,2",
			len(bat), len(bat[0].reqs), len(bat[1].reqs), len(bat[2].reqs))
	}
	if _, err := buildPlan("nope", 1, testTargets(), models, "DKA", 10, 4, 1.2, 8); err == nil {
		t.Fatal("unknown mix accepted")
	}
	if _, err := buildPlan("zipf", 1, testTargets(), models, "DKA", 10, 4, 0.5, 8); err == nil {
		t.Fatal("zipf skew <= 1 accepted")
	}
	ing, err := buildPlan("ingest", 1, testTargets(), models, "DKA", 16, 4, 1.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var verifies, ingests, probes int
	for _, j := range ing {
		switch {
		case j.expect413:
			probes++
		case j.ingest != nil:
			ingests++
		default:
			verifies++
			if !j.stable {
				t.Fatal("ingest-mix verify job not marked epoch-stable")
			}
		}
	}
	// 16 jobs at every-4th = 4 ingests + 12 verifies, plus the one probe.
	if verifies != 12 || ingests != 4 || probes != 1 {
		t.Fatalf("ingest plan shape: %d verifies, %d ingests, %d probes; want 12, 4, 1", verifies, ingests, probes)
	}
	if _, err := buildPlan("ingest", 1, testTargets(), models, "DKA", 10, 4, 1.2, 1); err == nil {
		t.Fatal("-ingestevery < 2 accepted")
	}
}

// TestZipfSkew: the zipf mix must concentrate mass on a few hot facts.
func TestZipfSkew(t *testing.T) {
	jobs, err := buildPlan("zipf", 3, testTargets(), []string{"m"}, "DKA", 600, 4, 1.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, j := range jobs {
		counts[j.reqs[0].FactID]++
	}
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	// 6 facts, 600 draws: uniform would put ~100 on each; zipf s=1.2 puts
	// far more on the head.
	if max < 200 {
		t.Fatalf("hottest fact drew %d/600 requests, want zipf-skewed (>= 200)", max)
	}
}

func TestPercentile(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 100; i++ {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	if got := percentile(ds, 0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v", got)
	}
	if got := percentile(ds, 0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v", got)
	}
	if got := percentile(ds, 1.0); got != 100*time.Millisecond {
		t.Fatalf("max = %v", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v", got)
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	a := map[string]string{"k1": "v1", "k2": "v2"}
	b := map[string]string{"k2": "v2", "k1": "v1"}
	if digestOf(a) != digestOf(b) {
		t.Fatal("digest depends on map order")
	}
	c := map[string]string{"k1": "v1", "k2": "DIFFERENT"}
	if digestOf(a) == digestOf(c) {
		t.Fatal("digest ignores verdict content")
	}
}

// fakeMetricsz is a canned /metricsz body in the daemon's shape: counters,
// a labeled breaker family and one histogram around the seven series
// loadgen reports.
const fakeMetricsz = `# HELP factcheck_requests_total Requests reaching the admission middleware.
# TYPE factcheck_requests_total counter
factcheck_requests_total 140
# TYPE factcheck_consensus_requests_total counter
factcheck_consensus_requests_total 20
# TYPE factcheck_consensus_votes_dispatched_total counter
factcheck_consensus_votes_dispatched_total 55
# TYPE factcheck_consensus_votes_skipped_total counter
factcheck_consensus_votes_skipped_total 45
# TYPE factcheck_consensus_escalations_total counter
factcheck_consensus_escalations_total 3
# TYPE factcheck_breaker_state gauge
factcheck_breaker_state{model="mistral:7b"} 1
# TYPE factcheck_retrieval_epoch gauge
factcheck_retrieval_epoch 2
# TYPE factcheck_retrieval_search_queries_total counter
factcheck_retrieval_search_queries_total 12
# TYPE factcheck_retrieval_postings_touched_total counter
factcheck_retrieval_postings_touched_total 3456
# TYPE factcheck_retrieval_docs_scored_total counter
factcheck_retrieval_docs_scored_total 789
# TYPE factcheck_endpoint_latency_seconds histogram
factcheck_endpoint_latency_seconds_bucket{endpoint="verify",le="0.001024"} 100
factcheck_endpoint_latency_seconds_bucket{endpoint="verify",le="+Inf"} 120
factcheck_endpoint_latency_seconds_sum{endpoint="verify"} 0.25
factcheck_endpoint_latency_seconds_count{endpoint="verify"} 120
`

// fakeService is a canned factcheckd: deterministic verdicts, no benchmark
// build, so the end-to-end driver test stays fast.
func fakeService(t *testing.T) *httptest.Server { return fakeServiceWith(t, fakeMetricsz) }

// fakeServiceWith is fakeService with the given /metricsz body.
func fakeServiceWith(t *testing.T, metricsz string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metricsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, metricsz)
	})
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{
			"FactBench": {"fb-1", "fb-2"},
		}})
	})
	verdict := func(req serve.VerifyRequest) serve.VerdictResponse {
		return serve.VerdictResponse{
			Dataset: req.Dataset, Method: req.Method, Model: req.Model, FactID: req.FactID,
			Verdict: "true", Gold: true, Correct: true, LatencyMS: 1.5, Attempts: 1, Source: "computed",
		}
	}
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, r *http.Request) {
		var req serve.VerifyRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if r.Header.Get("X-Server-Timing") == "1" {
			w.Header().Set("Server-Timing", "lru;dur=0.010, verify;dur=1.200, total;dur=1.500")
		}
		json.NewEncoder(w).Encode(verdict(req))
	})
	mux.HandleFunc("POST /v1/verify/batch", func(w http.ResponseWriter, r *http.Request) {
		var req serve.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := serve.BatchResponse{}
		for _, item := range req.Requests {
			v := verdict(item)
			resp.Results = append(resp.Results, serve.BatchItem{Verdict: &v})
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /v1/documents", func(w http.ResponseWriter, r *http.Request) {
		var req serve.IngestRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				http.Error(w, "body too large", http.StatusRequestEntityTooLarge)
				return
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(serve.IngestResponse{Queued: len(req.Documents)})
	})
	mux.HandleFunc("GET /v1/consensus/{fact}", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serve.ConsensusResponse{
			FactID: r.PathValue("fact"), Dataset: "FactBench", Method: "DKA",
			Votes: []serve.VoteItem{{Model: "m1", Verdict: "true"}}, Skipped: []string{"m2"},
			Final: true, Gold: true, Mode: "adaptive", LatencyMS: 3,
		})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// TestRunEndToEnd drives the full loadgen loop against a fake service and
// checks the report and digest file; a second run must produce the same
// digest.
func TestRunEndToEnd(t *testing.T) {
	srv := fakeService(t)
	digestFile := filepath.Join(t.TempDir(), "digest.txt")
	args := []string{"-addr", srv.URL, "-mix", "batch", "-n", "40", "-c", "4",
		"-batch", "8", "-seed", "5", "-digest", digestFile}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"mix=batch", "200=5", "p50=", "digest:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	first, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated runs produced different digests: %q vs %q", first, second)
	}
}

// TestRunIngestMix drives the ingest mix end-to-end: batches are accepted
// with 202, the oversized probe is refused with 413, and two runs of the
// same plan write identical (gold-only, epoch-stable) digests.
func TestRunIngestMix(t *testing.T) {
	srv := fakeService(t)
	digestFile := filepath.Join(t.TempDir(), "digest.txt")
	args := []string{"-addr", srv.URL, "-mix", "ingest", "-n", "24", "-c", "4",
		"-ingestevery", "4", "-seed", "3", "-digest", digestFile}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"mix=ingest", "202=6", "413=1", "digest:"} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	first, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(args, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("repeated ingest runs produced different digests: %q vs %q", first, second)
	}
}

// TestRunReportsMetricszCounters: the end-of-run retrieval and consensus
// lines are read from the server's /metricsz exposition, and a malformed
// exposition reports the counters unavailable instead of printing zeros.
func TestRunReportsMetricszCounters(t *testing.T) {
	args := func(url string) []string {
		return []string{"-addr", url, "-mix", "uniform", "-n", "4", "-c", "1", "-seed", "2"}
	}
	var out bytes.Buffer
	if err := run(args(fakeService(t).URL), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"\nretrieval: queries=12 postings_touched=3456 docs_scored=789\n",
		"\nconsensus: requests=20 dispatched=55 skipped=45 escalations=3\n",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing %q:\n%s", want, out.String())
		}
	}

	malformed := fakeMetricsz + "factcheck_retrieval_docs_scored_total 790\n" // duplicate series
	out.Reset()
	if err := run(args(fakeServiceWith(t, malformed).URL), &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "\nretrieval: unavailable (line ") {
		t.Errorf("malformed exposition not reported unavailable:\n%s", out.String())
	}
	if strings.Contains(out.String(), "consensus:") {
		t.Errorf("malformed exposition still printed consensus counters:\n%s", out.String())
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("lru;dur=0.012, verify;dur=4.1,total;dur=4.5, weird, desc;x=1")
	want := map[string]float64{"lru": 0.012, "verify": 4.1, "total": 4.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseServerTiming = %v, want %v", got, want)
	}
	if got := parseServerTiming(""); len(got) != 0 {
		t.Fatalf("empty header parsed to %v", got)
	}
}

// TestRunServerTiming: -server-timing prints the server attribution table
// and writes the same digest as a plain run — timing never leaks into the
// determinism contract.
func TestRunServerTiming(t *testing.T) {
	srv := fakeService(t)
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.txt")
	timed := filepath.Join(dir, "timed.txt")
	base := []string{"-addr", srv.URL, "-mix", "uniform", "-n", "12", "-c", "3", "-seed", "4"}

	var out bytes.Buffer
	if err := run(append(base, "-digest", plain), &out); err != nil {
		t.Fatalf("plain run: %v\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "server-timing:") {
		t.Error("plain run printed a server-timing section")
	}

	out.Reset()
	if err := run(append(base, "-digest", timed, "-server-timing"), &out); err != nil {
		t.Fatalf("timed run: %v\n%s", err, out.String())
	}
	report := out.String()
	for _, want := range []string{"server-timing: 12 traced responses", "verify", "lru", "total"} {
		if !strings.Contains(report, want) {
			t.Errorf("timed report missing %q:\n%s", want, report)
		}
	}

	a, err := os.ReadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(timed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("-server-timing changed the digest: %q vs %q", a, b)
	}
}

// TestConsensusDigestConcurrencyIndependent: a consensus-mix plan digests
// identically whether it runs on one worker or eight (the CI determinism
// gate in miniature).
func TestConsensusDigestConcurrencyIndependent(t *testing.T) {
	srv := fakeService(t)
	dir := t.TempDir()
	var digests [][]byte
	for _, c := range []string{"1", "8"} {
		file := filepath.Join(dir, "c"+c+".txt")
		var out bytes.Buffer
		if err := run([]string{"-addr", srv.URL, "-mix", "consensus", "-n", "20", "-c", c, "-seed", "9", "-digest", file}, &out); err != nil {
			t.Fatalf("-c %s run: %v\n%s", c, err, out.String())
		}
		d, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, d)
	}
	if len(digests[0]) == 0 || !bytes.Equal(digests[0], digests[1]) {
		t.Fatalf("consensus digests differ across -c: %q vs %q", digests[0], digests[1])
	}
}

// TestRunFlagsValidation covers the driver's own validation.
func TestRunFlagsValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "0"},
		{"-c", "0"},
		{"-nope"},
		{"positional"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunDetectsViolation: a server answering 500 must fail the run.
func TestRunDetectsViolation(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/facts", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"datasets": map[string][]string{"FactBench": {"fb-1"}}})
	})
	mux.HandleFunc("POST /v1/verify", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "kaboom", http.StatusInternalServerError)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", srv.URL, "-n", "3", "-c", "1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "contract violations") {
		t.Fatalf("run error = %v, want contract violations\n%s", err, out.String())
	}
}
