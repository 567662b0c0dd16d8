package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/llm"
)

// plan draws a reference phase, two probes and the closed loop.
func plan(seed int64, w serveWorkload, b *core.Benchmark) []phase {
	p := newPlanner(seed, w, b)
	return []phase{p.open(w.reference, 1), p.open(2*w.reference, 0.3), p.open(3*w.reference, 0.2), p.closed(w.saturate)}
}

func TestPlanDeterministic(t *testing.T) {
	b := core.NewBenchmark(core.TestConfig())
	for name, w := range serveWorkloads {
		x, y, z := plan(7, w, b), plan(7, w, b), plan(8, w, b)
		if !reflect.DeepEqual(x, y) {
			t.Errorf("%s: same seed produced different plans or schedules", name)
		}
		for k := range x {
			if reflect.DeepEqual(x[k].reqs, z[k].reqs) {
				t.Errorf("%s phase %d: different seeds produced identical plans", name, k)
			}
			if k < 3 && reflect.DeepEqual(x[k].due, z[k].due) {
				t.Errorf("%s phase %d: different seeds produced identical schedules", name, k)
			}
		}
		if n := len(x[3].reqs); n != w.saturate {
			t.Errorf("%s: closed loop has %d requests, want %d", name, n, w.saturate)
		}
	}
}

// The mix follows the every-Nth slots, and an ingest group cut at a phase
// boundary continues in the next phase: the RAG verifies of a posted fact
// are never dropped.
func TestPlanMix(t *testing.T) {
	b := core.NewBenchmark(core.TestConfig())
	kinds := func(w serveWorkload) (map[string]int, []planned) {
		n := map[string]int{}
		var all []planned
		for _, p := range plan(3, w, b) {
			for _, r := range p.reqs {
				n[r.kind]++
			}
			all = append(all, p.reqs...)
		}
		return n, all
	}
	hot, _ := kinds(serveWorkloads["serve-hot"])
	if hot["ingest"] != 0 || hot["verify"] < 2*hot["consensus"] || hot["consensus"] < hot["verify"]/4 {
		t.Errorf("serve-hot mix %v, want one consensus lookup per %d slots", hot, consensusEvery)
	}
	ing, all := kinds(serveWorkloads["serve-ingest"])
	if ing["ingest"] == 0 || ing["consensus"] != 0 {
		t.Errorf("serve-ingest mix %v", ing)
	}
	for i, r := range all {
		if r.kind != "ingest" || i+len(llm.BenchmarkModels) >= len(all) {
			continue
		}
		for k, model := range llm.BenchmarkModels {
			v := all[i+1+k]
			if v.kind != "verify" || v.fact != r.fact || v.cell.Method != llm.MethodRAG || v.cell.Model != model {
				t.Fatalf("request %d after the post for %s is %s %v", i+1+k, r.fact.ID, v.kind, v.cell)
			}
		}
	}
}

// The capacity search follows the capacity: it climbs to the first
// failing rate, bisects below it, and reports the offered rate of the
// highest passing probe; it descends when the start rate fails.
func TestSearchCapacity(t *testing.T) {
	for _, capacity := range []float64{900, 2000, 7000, 13000} {
		var probes int
		probe := func(rate float64) (bool, bool, float64) {
			probes++
			return rate <= capacity, false, rate * 0.99
		}
		got := searchCapacity(2000, probe)
		if got > capacity || got < capacity/math.Pow(climbStep, 1.0/(1<<refineSteps))*0.99 {
			t.Errorf("capacity %v: search found %v after %d probes", capacity, got, probes)
		}
	}
	// Past the ceiling the search stops at its highest probe.
	top := 2000 * math.Pow(climbStep, maxClimb)
	got := searchCapacity(2000, func(rate float64) (bool, bool, float64) { return true, false, rate })
	if math.Abs(got-top) > 1e-6*top {
		t.Errorf("unbounded capacity: search found %v, want the ceiling %v", got, top)
	}
	if got := searchCapacity(2000, func(float64) (bool, bool, float64) { return false, false, 0 }); got != 0 {
		t.Errorf("nothing passes: search found %v, want 0", got)
	}
	// A marginal failure is repeated, and a passing repeat counts.
	tries := map[float64]int{}
	got = searchCapacity(2000, func(rate float64) (bool, bool, float64) {
		tries[rate]++
		return rate <= 5000 || tries[rate] == 2 && rate < 8000, true, rate
	})
	if got < 7000 || got >= 8000 {
		t.Errorf("noisy capacity 8000: search found %v, want the repeats to pass up to it", got)
	}
	for rate, n := range tries {
		if rate > 5000 && n != 2 {
			t.Errorf("marginal failure at %v probed %d times, want 2", rate, n)
		}
	}
}

func TestPoissonSchedule(t *testing.T) {
	due := poissonSchedule(rand.New(rand.NewSource(1)), 1000, 5000)
	for i := 1; i < len(due); i++ {
		if due[i] < due[i-1] {
			t.Fatal("schedule not ascending")
		}
	}
	// 5000 arrivals at 1000/s span about 5s.
	if span := due[len(due)-1]; span < 4500*time.Millisecond || span > 5500*time.Millisecond {
		t.Errorf("5000 arrivals at 1000/s span %v", span)
	}
}

// A server that stalls once must charge the stall to every request queued
// behind it: latency is timed from the due send time, not from when a
// connection became free.
func TestOpenLoopChargesStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	s := newHTTPSender(srv.URL, 1, false)
	defer s.close()
	due := make([]time.Duration, 60)
	for i := range due {
		due[i] = time.Duration(i+1) * 5 * time.Millisecond
	}
	req := httpRequest{method: http.MethodGet, path: "/", client: "c"}
	samples := openLoop(time.Now(), due, 1, func(i int) result { return s.send(i, &req) })
	stalled := samples[4]
	if stalled.latency() < stall {
		t.Fatalf("stalled request latency %v < stall %v", stalled.latency(), stall)
	}
	// Requests due while the stall lasted waited for it to end.
	for i := 5; i < len(samples); i++ {
		s := samples[i]
		if s.due >= stalled.done {
			break
		}
		if want := stalled.done - s.due; s.latency() < want {
			t.Errorf("request %d due %v: latency %v, want >= %v (wait behind the stall)", i, s.due, s.latency(), want)
		}
	}
	queuedBehind := samples[5]
	if queuedBehind.latency() < stall-10*time.Millisecond {
		t.Errorf("first request behind the stall: latency %v", queuedBehind.latency())
	}
	// The dispatcher kept releasing on schedule while the connection was
	// stalled. With 60 requests the p99 is the single latest release, so a
	// host hiccup of some milliseconds can show in it; a dispatcher that
	// waited for the stall would be late by most of the stall.
	if g := reportGenerator(samples); g.latenessP99 >= stall/4 {
		t.Errorf("the generator itself was not late, but its report says %v", g.latenessP99)
	}
}
