package search

import (
	"sort"
	"sync"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// scanRef is the retired linear-scan ranking, kept as the differential
// reference for Engine.Search: cosine of the query against every pool
// document's dense embedding plus the SERP jitter, full sort, truncate.
// TestSearchMatchesScan asserts Search == scan byte for byte, and
// BenchmarkSearchScan measures its cost. Dense vectors are built on first
// use and cached per pool (keyed by the pool pointer, so a rebuilt pool
// gets fresh vectors), so repeated calls measure steady-state scan cost as
// the old engine paid it.
type scanRef struct {
	e    *Engine
	vecs sync.Map // *factPool -> []text.Vector
}

func newScanRef(e *Engine) *scanRef { return &scanRef{e: e} }

func (s *scanRef) poolVecs(p *factPool) []text.Vector {
	if v, ok := s.vecs.Load(p); ok {
		return v.([]text.Vector)
	}
	vecs := make([]text.Vector, len(p.docs))
	for i, d := range p.docs {
		vecs[i] = text.Embed(d.full)
	}
	v, _ := s.vecs.LoadOrStore(p, vecs)
	return v.([]text.Vector)
}

func (s *scanRef) search(factID, query string, n int) ([]SERPItem, error) {
	if n <= 0 {
		n = DefaultSERPSize
	}
	p, err := s.e.pool(factID)
	if err != nil {
		return nil, err
	}
	vecs := s.poolVecs(p)
	qv := text.Embed(query)
	type scored struct {
		d *pooledDoc
		s float64
	}
	items := make([]scored, 0, len(p.docs))
	for i, d := range p.docs {
		sc := text.Cosine(qv, vecs[i])
		sc += serpJitterScale * det.Uniform("serp", query, d.doc.ID)
		items = append(items, scored{d: d, s: sc})
	}
	sort.SliceStable(items, func(i, j int) bool {
		if items[i].s != items[j].s {
			return items[i].s > items[j].s
		}
		return items[i].d.doc.ID < items[j].d.doc.ID
	})
	if len(items) > n {
		items = items[:n]
	}
	out := make([]SERPItem, len(items))
	for i, it := range items {
		out[i] = SERPItem{
			DocID: it.d.doc.ID,
			URL:   it.d.doc.URL,
			Host:  it.d.doc.Host,
			Title: it.d.doc.Title,
			Rank:  i + 1,
			Score: it.s,
		}
	}
	return out, nil
}
