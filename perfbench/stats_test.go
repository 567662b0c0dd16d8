package main

import (
	"testing"
	"time"
)

func seq(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		// Reverse order: the rule must sort.
		out[i] = time.Duration(n-i) * time.Millisecond
	}
	return out
}

func TestNearestRank(t *testing.T) {
	cases := []struct {
		n          int
		q          float64
		want       time.Duration
		wantBeyond int
	}{
		{100, 0.5, 50 * time.Millisecond, 50},
		{100, 0.99, 99 * time.Millisecond, 1},
		{101, 0.5, 51 * time.Millisecond, 50},
		{1000, 0.99, 990 * time.Millisecond, 10},
		{1, 0.99, time.Millisecond, 0},
		{3, 0.01, time.Millisecond, 2},
	}
	for _, c := range cases {
		got, beyond := nearestRank(seq(c.n), c.q)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("n=%d q=%v: got (%v, %d), want (%v, %d)", c.n, c.q, got, beyond, c.want, c.wantBeyond)
		}
	}
	if got, beyond := nearestRank(nil, 0.5); got != 0 || beyond != 0 {
		t.Errorf("empty: got (%v, %d)", got, beyond)
	}
}

func TestP99NeedsTenBeyond(t *testing.T) {
	// 1000 samples leave exactly 10 beyond the p99; 999 leave 9.
	if _, beyond := nearestRank(seq(p99Window), 0.99); beyond != minBeyond {
		t.Fatalf("a window leaves %d samples beyond its p99, want %d", beyond, minBeyond)
	}
	if _, n, ok := latencies(seq(1000)).windowedP99(); !ok || n != 1 {
		t.Error("p99 of 1000 samples must be reportable")
	}
	if _, _, ok := latencies(seq(999)).windowedP99(); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not be reported")
	}
}

func TestWindowedP99(t *testing.T) {
	// Three windows; one holds a burst of slow samples. The reported p99
	// is the median window's, not the burst's.
	var l latencies
	for w := 0; w < 3; w++ {
		for i := 0; i < p99Window; i++ {
			d := time.Duration(i+1) * time.Microsecond
			if w == 1 && i >= p99Window-50 {
				d = time.Second
			}
			l = append(l, d)
		}
	}
	p99, n, ok := l.windowedP99()
	if !ok || n != 3 || p99 != 990*time.Microsecond {
		t.Errorf("got (%v, %d, %v), want (990µs, 3, true)", p99, n, ok)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

func ival(name string, parent int32, a, b int) span {
	return span{name: name, parent: parent, start: time.Duration(a) * time.Millisecond, end: time.Duration(b) * time.Millisecond}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		ival("root", -1, 0, 100),
		// Two overlapping children cover [10, 50]: 40ms, not 50ms.
		ival("a", 0, 10, 40),
		ival("b", 0, 20, 50),
		// A disjoint child covers [60, 70].
		ival("c", 0, 60, 70),
		// A grandchild nested in a: subtracted from a only.
		ival("d", 1, 15, 25),
		// A child that overruns its parent is clipped to it.
		ival("e", 3, 65, 90),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 100*ms - 40*ms - 10*ms,
		"a":    30*ms - 10*ms,
		"b":    30 * ms,
		"c":    10*ms - 5*ms,
		"d":    10 * ms,
		"e":    25 * ms,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, got[name], w)
		}
	}
}

func TestFoldRequests(t *testing.T) {
	ms := time.Millisecond
	spans := []span{{name: "serve.handler.verify", trace: 7, parent: -1, start: 12 * ms, end: 20 * ms}}
	samples := []sample{
		{sent: 1 * ms, done: 11 * ms, result: result{timing: "ratelimit;dur=1.000, lru;dur=2.000, verify;dur=9.000, total;dur=8.000"}},
	}
	out := foldRequests(spans, samples, 7, 10*ms)
	self := selfTimes(out)
	if len(out) != 5 {
		t.Fatalf("got %d spans, want handler + transport + 3 layers", len(out))
	}
	if out[0].parent != 1 || out[1].name != "serve.transport" {
		t.Fatalf("handler not linked under the request span: %+v", out[:2])
	}
	// Layers are laid end to end from the handler start and clipped to
	// its end: ratelimit [12,13], lru [13,15], verify [15,20].
	want := map[string]time.Duration{
		"serve.transport":      10*ms - 8*ms,
		"serve.handler.verify": 0,
		"serve.ratelimit":      1 * ms,
		"serve.lru":            2 * ms,
		"serve.verify":         5 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("lru;dur=0.012, verify;dur=3.100, bogus, total;dur=3.2")
	if len(got) != 2 || got[0].name != "lru" || got[1].name != "verify" || got[1].dur != 3100*time.Microsecond {
		t.Fatalf("got %+v", got)
	}
}
