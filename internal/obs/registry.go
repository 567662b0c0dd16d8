package obs

import (
	"sort"
	"sync"
)

// Registry owns a process-wide set of named histograms, grouped into
// families (one Prometheus metric per family, one label value per
// histogram). Lookup-or-create takes a mutex; hot paths resolve their
// *Histogram once (package-level var, struct field) and record lock-free
// thereafter.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

type family struct {
	order []string
	hists map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry: the serving layers record into it
// and /metricsz renders it. Tests that need isolation build their own.
var Default = NewRegistry()

// Histogram returns the (family, label) histogram, creating it on first
// use. The same pair always returns the same histogram.
func (r *Registry) Histogram(familyName, label string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[familyName]
	if f == nil {
		f = &family{hists: map[string]*Histogram{}}
		r.families[familyName] = f
		r.order = append(r.order, familyName)
	}
	h := f.hists[label]
	if h == nil {
		h = &Histogram{}
		f.hists[label] = h
		f.order = append(f.order, label)
	}
	return h
}

// Layer returns the named layer histogram of the default registry — one
// per instrumented serving layer (lru, store, exec_wait, verify, the rag
// phases, consensus tiers, ...).
func Layer(label string) *Histogram { return Default.Histogram("layer", label) }

// Endpoint returns the named endpoint histogram of the default registry —
// whole-request latency per HTTP endpoint.
func Endpoint(label string) *Histogram { return Default.Histogram("endpoint", label) }

// histEntry is one registered histogram with its coordinates.
type histEntry struct {
	fam, label string
	h          *Histogram
}

// entries returns a stable copy of the registry's shape: families and
// labels in sorted order, so every rendering of the registry is
// deterministic regardless of creation order.
func (r *Registry) entries() []histEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := append([]string(nil), r.order...)
	sort.Strings(fams)
	var out []histEntry
	for _, fn := range fams {
		f := r.families[fn]
		labels := append([]string(nil), f.order...)
		sort.Strings(labels)
		for _, l := range labels {
			out = append(out, histEntry{fam: fn, label: l, h: f.hists[l]})
		}
	}
	return out
}
