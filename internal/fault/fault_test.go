package fault

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"factcheck/internal/llm"
)

// okModel is a minimal inner model that records its calls and echoes the
// claim key, so tests can tell whether a fault short-circuited it and
// whether the response passed through untouched.
type okModel struct {
	name string

	mu    sync.Mutex
	calls int
}

func (m *okModel) Name() string     { return m.name }
func (m *okModel) ParamsB() float64 { return 1 }
func (m *okModel) Generate(_ context.Context, req llm.Request) (llm.Response, error) {
	m.mu.Lock()
	m.calls++
	m.mu.Unlock()
	return llm.Response{Text: "ok:" + req.Claim.Key}, nil
}

func (m *okModel) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func req(key string) llm.Request {
	return llm.Request{Claim: llm.Claim{Key: key}, Method: llm.MethodDKA}
}

func TestParse(t *testing.T) {
	valid := []struct {
		specs []string
		want  Plan
		str   string
	}{
		{
			specs: []string{"err=0.1,spike=50ms,spike-rate=0.2"},
			want:  Plan{Models: map[string]ModelSpec{"*": {ErrRate: 0.1, Spike: 50 * time.Millisecond, SpikeRate: 0.2}}},
			str:   "*{err=0.1,spike=50ms@0.2}",
		},
		{
			specs: []string{"model=mistral:7b,down"},
			want:  Plan{Models: map[string]ModelSpec{"mistral:7b": {Down: true}}},
			str:   "mistral:7b{down}",
		},
		{
			specs: []string{"fail-first=3,stall=0.5"},
			want:  Plan{Models: map[string]ModelSpec{"*": {FailFirst: 3, StallRate: 0.5}}},
			str:   "*{fail-first=3,stall=0.5}",
		},
		{
			specs: []string{"store-corrupt=0.5,ingest-err=0.25"},
			want:  Plan{CorruptRate: 0.5, IngestRate: 0.25},
			str:   "store-corrupt=0.5 ingest-err=0.25",
		},
		{
			// Folding several -fault flags accumulates per-model specs;
			// repeating an identical spec is not a conflict.
			specs: []string{"model=a,down", "err=0.1", "model=a,down"},
			want:  Plan{Models: map[string]ModelSpec{"a": {Down: true}, "*": {ErrRate: 0.1}}},
			str:   "*{err=0.1} a{down}",
		},
	}
	for _, tc := range valid {
		var p Plan
		for _, s := range tc.specs {
			if err := p.Parse(s); err != nil {
				t.Fatalf("Parse(%q): %v", s, err)
			}
		}
		if !reflect.DeepEqual(p, tc.want) {
			t.Errorf("Parse(%v) = %+v, want %+v", tc.specs, p, tc.want)
		}
		if got := p.String(); got != tc.str {
			t.Errorf("Parse(%v).String() = %q, want %q", tc.specs, got, tc.str)
		}
	}

	invalid := [][]string{
		{"err=2"},                              // rate out of range
		{"err=x"},                              // not a number
		{"err=NaN"},                            // not finite
		{"spike-rate=nan"},                     // not finite
		{"stall=NaN"},                          // not finite
		{"store-corrupt=NaN"},                  // not finite
		{"ingest-err=NaN"},                     // not finite
		{"err=Inf"},                            // not finite
		{"fail-first=-1"},                      // negative count
		{"spike=-5ms"},                         // negative duration
		{"spike=soon"},                         // not a duration
		{"bogus=1"},                            // unknown clause
		{"model="},                             // empty model name
		{"err=0.1,model=a"},                    // model after the clauses it should scope
		{"model=a,err=0.1", "model=a,err=0.2"}, // conflicting respecification
	}
	for _, specs := range invalid {
		var p Plan
		var err error
		for _, s := range specs {
			if err = p.Parse(s); err != nil {
				break
			}
		}
		if err == nil {
			t.Errorf("Parse(%v) accepted", specs)
		}
	}
}

// FuzzPlanParse folds arbitrary -fault flag values into one plan: parsing
// never panics, and a plan that parsed without error holds only rates in
// [0, 1] and non-negative fail-first counts and spike durations.
func FuzzPlanParse(f *testing.F) {
	f.Add("err=NaN", "")
	f.Add("err=0.1,spike=50ms,spike-rate=0.2", "model=mistral:7b,down")
	f.Add("fail-first=3,stall=0.5", "store-corrupt=0.5,ingest-err=0.25")
	f.Add("model=a,err=0.1", "model=a,err=0.2")
	f.Add("err=-0,spike=0s", "bogus")
	f.Fuzz(func(t *testing.T, a, b string) {
		var p Plan
		for _, spec := range []string{a, b} {
			if err := p.Parse(spec); err != nil {
				return
			}
		}
		inRange := func(r float64) bool { return r >= 0 && r <= 1 }
		if !inRange(p.CorruptRate) || !inRange(p.IngestRate) {
			t.Fatalf("Parse(%q, %q): plan-wide rates out of [0, 1]: %+v", a, b, p)
		}
		for m, s := range p.Models {
			if !inRange(s.ErrRate) || !inRange(s.SpikeRate) || !inRange(s.StallRate) {
				t.Fatalf("Parse(%q, %q): model %q rates out of [0, 1]: %+v", a, b, m, s)
			}
			if s.FailFirst < 0 || s.Spike < 0 {
				t.Fatalf("Parse(%q, %q): model %q negative fail-first or spike: %+v", a, b, m, s)
			}
		}
	})
}

func TestEmptyPlanAndNilInjector(t *testing.T) {
	var p Plan
	if !p.Empty() || p.String() != "none" {
		t.Fatalf("zero plan: Empty=%v String=%q", p.Empty(), p.String())
	}
	in := New(p)
	if in != nil {
		t.Fatal("New(empty plan) != nil")
	}
	m := &okModel{name: "m"}
	if got := in.Model(m); got != llm.Model(m) {
		t.Error("nil injector rewrapped the model")
	}
	if in.StoreTamper() != nil {
		t.Error("nil injector returned a store tamper hook")
	}
	if err := in.IngestFault(); err != nil {
		t.Errorf("nil injector ingest fault: %v", err)
	}
	if !in.Plan().Empty() {
		t.Error("nil injector plan not empty")
	}
	// A plan without faults for this model leaves it unwrapped too.
	in = New(Plan{Models: map[string]ModelSpec{"other": {Down: true}}})
	if got := in.Model(m); got != llm.Model(m) {
		t.Error("injector wrapped a model its plan does not fault")
	}
}

// errPattern drives n calls with distinct claim keys through a fresh
// injector for the plan and records which calls failed.
func errPattern(t *testing.T, plan Plan, n int) []bool {
	t.Helper()
	m := New(plan).Model(&okModel{name: "m"})
	pat := make([]bool, n)
	for i := range pat {
		_, err := m.Generate(context.Background(), req("k"+strconv.Itoa(i)))
		if err != nil {
			var fe *Error
			if !errors.As(err, &fe) || !fe.FaultTransient() {
				t.Fatalf("call %d: %v is not a transient fault", i, err)
			}
			pat[i] = true
		}
	}
	return pat
}

// TestInjectorDeterminism: the same plan, seed and traffic draw the same
// faults in the same places; a different seed draws a different pattern.
func TestInjectorDeterminism(t *testing.T) {
	plan := func(seed string) Plan {
		return Plan{Seed: seed, Models: map[string]ModelSpec{"*": {ErrRate: 0.5}}}
	}
	a := errPattern(t, plan("s"), 256)
	b := errPattern(t, plan("s"), 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical plans drew different fault patterns")
	}
	fails := 0
	for _, f := range a {
		if f {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("err=0.5 over %d calls failed %d times", len(a), fails)
	}
	if reflect.DeepEqual(a, errPattern(t, plan("s2"), 256)) {
		t.Fatal("different seeds drew identical fault patterns")
	}
}

// TestInterleavingIndependence: draws are keyed by call coordinates and a
// per-coordinate sequence, so the fault a logical call sees does not
// depend on how unrelated calls interleave.
func TestInterleavingIndependence(t *testing.T) {
	plan := Plan{Seed: "s", Models: map[string]ModelSpec{"*": {ErrRate: 0.5}}}
	const per = 64
	run := func(order []string) map[string][]bool {
		m := New(plan).Model(&okModel{name: "m"})
		pats := map[string][]bool{}
		for _, key := range order {
			_, err := m.Generate(context.Background(), req(key))
			pats[key] = append(pats[key], err != nil)
		}
		return pats
	}
	var alternating, grouped []string
	for i := 0; i < per; i++ {
		alternating = append(alternating, "a", "b")
	}
	for i := 0; i < per; i++ {
		grouped = append(grouped, "a")
	}
	for i := 0; i < per; i++ {
		grouped = append(grouped, "b")
	}
	if !reflect.DeepEqual(run(alternating), run(grouped)) {
		t.Fatal("per-key fault sequences depend on interleaving")
	}
}

func TestFailFirst(t *testing.T) {
	inner := &okModel{name: "m"}
	m := New(Plan{Seed: "s", Models: map[string]ModelSpec{"m": {FailFirst: 2}}}).Model(inner)
	for i := 0; i < 2; i++ {
		if _, err := m.Generate(context.Background(), req("k")); err == nil {
			t.Fatalf("call %d succeeded inside the fail-first window", i)
		}
	}
	if inner.callCount() != 0 {
		t.Fatalf("inner model called %d times during fail-first", inner.callCount())
	}
	resp, err := m.Generate(context.Background(), req("k"))
	if err != nil || resp.Text != "ok:k" {
		t.Fatalf("post-recovery call = (%+v, %v)", resp, err)
	}
}

func TestDown(t *testing.T) {
	inner := &okModel{name: "m"}
	m := New(Plan{Models: map[string]ModelSpec{"m": {Down: true}}}).Model(inner)
	for i := 0; i < 3; i++ {
		_, err := m.Generate(context.Background(), req("k"))
		var fe *Error
		if !errors.As(err, &fe) || !fe.FaultUnavailable() || fe.FaultTransient() {
			t.Fatalf("down call %d: %v, want a non-retryable unavailable fault", i, err)
		}
	}
	if inner.callCount() != 0 {
		t.Fatal("down model still reached the inner model")
	}
}

// TestExactNameWinsOverStar: a model-specific spec overrides the wildcard
// even when it injects nothing.
func TestExactNameWinsOverStar(t *testing.T) {
	in := New(Plan{Models: map[string]ModelSpec{
		"*":      {Down: true},
		"spared": {},
	}})
	if _, err := in.Model(&okModel{name: "spared"}).Generate(context.Background(), req("k")); err != nil {
		t.Fatalf("exact empty spec did not override *: %v", err)
	}
	if _, err := in.Model(&okModel{name: "other"}).Generate(context.Background(), req("k")); err == nil {
		t.Fatal("wildcard down spec did not apply")
	}
}

func TestStallHonoursContext(t *testing.T) {
	m := New(Plan{Seed: "s", Models: map[string]ModelSpec{"m": {StallRate: 1}}}).Model(&okModel{name: "m"})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := m.Generate(ctx, req("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stalled call returned %v, want DeadlineExceeded", err)
	}
}

func TestSpikeDelaysButPreservesResponse(t *testing.T) {
	m := New(Plan{Seed: "s", Models: map[string]ModelSpec{"m": {Spike: 40 * time.Millisecond, SpikeRate: 1}}}).Model(&okModel{name: "m"})
	start := time.Now()
	resp, err := m.Generate(context.Background(), req("k"))
	if err != nil || resp.Text != "ok:k" {
		t.Fatalf("spiked call = (%+v, %v), want untouched response", resp, err)
	}
	// Jitter is ±50%, so the sleep is at least 20ms.
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("spiked call returned in %v, spike not applied", el)
	}
	// A spike mid-sleep yields to the caller's context.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := m.Generate(ctx, req("k2")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled spike returned %v", err)
	}
}

func TestStoreTamper(t *testing.T) {
	in := New(Plan{Seed: "s", CorruptRate: 1})
	tamper := in.StoreTamper()
	if tamper == nil {
		t.Fatal("corrupting plan returned no tamper hook")
	}
	data := []byte("snapshot-bytes")
	orig := append([]byte(nil), data...)
	got := tamper(7, data)
	if !reflect.DeepEqual(data, orig) {
		t.Fatal("tamper mutated the caller's slice")
	}
	diffs := 0
	for i := range got {
		if got[i] != orig[i] {
			diffs++
		}
	}
	if len(got) != len(orig) || diffs != 1 {
		t.Fatalf("tampered copy differs in %d bytes, want exactly 1", diffs)
	}
	// Deterministic per fingerprint: same fp and bytes, same corruption.
	if !reflect.DeepEqual(got, tamper(7, data)) {
		t.Fatal("tamper is not deterministic per fingerprint")
	}
	if len(tamper(7, nil)) != 0 {
		t.Fatal("tamper invented bytes for an empty snapshot")
	}
	if New(Plan{Models: map[string]ModelSpec{"*": {Down: true}}}).StoreTamper() != nil {
		t.Fatal("non-corrupting plan returned a tamper hook")
	}
}

func TestIngestFault(t *testing.T) {
	in := New(Plan{Seed: "s", IngestRate: 1})
	for i := 0; i < 3; i++ {
		err := in.IngestFault()
		var fe *Error
		if !errors.As(err, &fe) || !fe.FaultTransient() {
			t.Fatalf("fold %d: %v, want transient ingest fault", i, err)
		}
	}
	// The k-th fold fails or not deterministically for a given seed.
	seq := func() []bool {
		in := New(Plan{Seed: "s", IngestRate: 0.5})
		var pat []bool
		for i := 0; i < 128; i++ {
			pat = append(pat, in.IngestFault() != nil)
		}
		return pat
	}
	if !reflect.DeepEqual(seq(), seq()) {
		t.Fatal("ingest fault sequence is not deterministic")
	}
}

func TestErrorMessageNamesScopeAndKind(t *testing.T) {
	e := &Error{Scope: "gemma2:9b", Kind: KindTransient}
	if msg := e.Error(); !strings.Contains(msg, "gemma2:9b") || !strings.Contains(msg, KindTransient) {
		t.Fatalf("error message %q", msg)
	}
}

func TestHTTPMiddlewareFail(t *testing.T) {
	inner := 0
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { inner++; w.WriteHeader(200) })
	h := HTTPMiddleware(HTTPSpec{FailRate: 1}, "s", next)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/x", nil))
	if w.Code != http.StatusInternalServerError || inner != 0 {
		t.Fatalf("status %d (inner calls %d), want injected 500", w.Code, inner)
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After %q, want a positive integer", w.Header().Get("Retry-After"))
	}
	// An empty spec leaves the handler alone.
	h = HTTPMiddleware(HTTPSpec{}, "s", next)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/x", nil))
	if w.Code != 200 {
		t.Fatalf("empty spec: status %d", w.Code)
	}
}

// TestHTTPMiddlewareDeterminism: the same seed and request stream draw the
// same fault pattern.
func TestHTTPMiddlewareDeterminism(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200) })
	run := func(seed string) []int {
		h := HTTPMiddleware(HTTPSpec{FailRate: 0.5}, seed, next)
		var codes []int
		for i := 0; i < 128; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest("GET", fmt.Sprintf("/p/%d", i%8), nil))
			codes = append(codes, w.Code)
		}
		return codes
	}
	a := run("s")
	if !reflect.DeepEqual(a, run("s")) {
		t.Fatal("identical request streams drew different HTTP faults")
	}
	var oks, fails int
	for _, c := range a {
		if c == 200 {
			oks++
		} else {
			fails++
		}
	}
	if oks == 0 || fails == 0 {
		t.Fatalf("fail-rate 0.5 over %d requests: %d ok, %d failed", len(a), oks, fails)
	}
}

func TestHTTPMiddlewareLatencyAndStall(t *testing.T) {
	next := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(200) })
	h := HTTPMiddleware(HTTPSpec{Latency: 30 * time.Millisecond}, "s", next)
	start := time.Now()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/x", nil))
	if el := time.Since(start); w.Code != 200 || el < 25*time.Millisecond {
		t.Fatalf("latency spec: status %d after %v", w.Code, el)
	}

	inner := 0
	counted := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { inner++; w.WriteHeader(200) })
	h = HTTPMiddleware(HTTPSpec{StallRate: 1}, "s", counted)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start = time.Now()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/x", nil).WithContext(ctx))
	if el := time.Since(start); el < 15*time.Millisecond || inner != 0 {
		t.Fatalf("stall released after %v with %d inner calls, want hang until ctx done", el, inner)
	}
}
