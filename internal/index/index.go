// Package index is the inverted-index retrieval substrate behind the mock
// SERP engine. Each fact's document pool gets one immutable Index: hashed
// terms map to posting lists of (doc, weight) pairs whose weights are the
// sub-linearly damped, L2-normalised term weights text.Embed produces, so a
// query's cosine score is recovered by term-at-a-time accumulation over the
// postings of the query's non-zero dimensions. Top-k selection runs over a
// bounded min-heap, replacing the full O(pool · log pool) sort with
// O(pool · log k).
//
// TopKSparse is the one retrieval path, and it is exhaustive: it reads every
// posting of every query dimension. A fact's pool is small (about 110–155
// documents against n_max = 100 results), so there is no work for an
// early-termination top-k to skip.
//
// Determinism contract: for any query q and document d, the accumulated
// score equals text.Cosine(text.Embed(q), text.Embed(title+" "+body)) bit
// for bit. Accumulation visits query dimensions in ascending order — the
// same order the dense cosine loop adds products — and skipped dimensions
// contribute exactly +0.0, which is an identity under IEEE-754 addition for
// the non-negative partial sums involved. The selected top k under the
// total order (score desc, doc ID asc) is therefore byte-identical to
// sorting the full pool and truncating.
package index

import (
	"math"
	"slices"

	"factcheck/internal/text"
)

// Posting is one (document, weight) pair in a term's posting list. Doc
// indexes the pool's document table; Weight is the document's normalised
// term weight, (1+log tf)/‖d‖, exactly as text.Embed computes it.
type Posting struct {
	Doc    int32
	Weight float32
}

// Index is an immutable inverted index over one document pool.
type Index struct {
	// dims maps a hashed term dimension to its document-ascending posting
	// list. Dimensions absent from every document are absent here.
	dims map[int32][]Posting
	// ids is the pool-ordered document ID table.
	ids []string
	// nPostings is the total posting count, for stats.
	nPostings int
}

// Builder accumulates documents into an Index. Documents must be added in
// pool order; the builder is not safe for concurrent use.
type Builder struct {
	dims map[int32][]Posting
	ids  []string
	n    int
}

// NewBuilder returns a builder sized for about capHint documents.
func NewBuilder(capHint int) *Builder {
	return &Builder{
		dims: make(map[int32][]Posting),
		ids:  make([]string, 0, capHint),
	}
}

// Add indexes one document from its term stream (content tokens of
// title + body, as corpus.Materialized carries). The document's weights are
// derived via text.SparseEmbedTokens, bit-identical to the dense vector the
// linear-scan engine embedded.
func (b *Builder) Add(docID string, terms []string) {
	b.AddVec(docID, text.SparseEmbedTokens(terms))
}

// AddVec indexes one document from its precomputed sparse embedding (the
// vector corpus.Materialized carries), skipping the embed pass entirely.
// Sparse dims are ascending and posting lists grow in doc order, so the
// index is identical to the one Add builds.
func (b *Builder) AddVec(docID string, v text.SparseVector) {
	doc := int32(len(b.ids))
	b.ids = append(b.ids, docID)
	for i, dim := range v.Dims {
		b.dims[dim] = append(b.dims[dim], Posting{Doc: doc, Weight: v.Weights[i]})
	}
	b.n += len(v.Dims)
}

// Build finalises the index. The builder must not be reused afterwards.
func (b *Builder) Build() *Index {
	ix := &Index{dims: b.dims, ids: b.ids, nPostings: b.n}
	b.dims = nil
	b.ids = nil
	return ix
}

// Docs returns the number of indexed documents.
func (ix *Index) Docs() int { return len(ix.ids) }

// Postings returns the total number of postings (non-zero term weights).
func (ix *Index) Postings() int { return ix.nPostings }

// ID returns the doc ID at pool position i.
func (ix *Index) ID(i int) string { return ix.ids[i] }

// Hit is one scored document of a top-k selection.
type Hit struct {
	// Doc is the document's pool position (index into the ID table).
	Doc int
	// ID is the document ID.
	ID string
	// Score is the final score: accumulated cosine plus the perturbation.
	Score float64
}

// Stats counts the work of one TopKSparse call.
type Stats struct {
	// PostingsTouched is the summed length of the posting lists of the
	// query dimensions present in the index.
	PostingsTouched int
	// DocsScored is the pool size: every document gets a final score.
	DocsScored int
}

// Arena holds the per-query scratch state of a top-k call: the dense
// accumulators, the bounded heap and the sort buffers. Reusing one arena
// across queries makes warm top-k calls allocation-free; the engine pools
// arenas behind a sync.Pool. An Arena is not safe for concurrent use, and
// the hit slice a top-k call returns aliases the arena — copy it out before
// the next call on the same arena.
type Arena struct {
	acc  []float64
	hits []Hit
	keys []uint64
	tmp  []Hit
	// Stats describes the last TopKSparse call on this arena.
	Stats Stats
}

// accumulator returns a zeroed n-sized accumulator from the arena.
func (a *Arena) accumulator(n int) []float64 {
	if cap(a.acc) < n {
		a.acc = make([]float64, n)
	}
	a.acc = a.acc[:n]
	clear(a.acc)
	return a.acc
}

// heap returns an empty k-capacity hit buffer from the arena.
func (a *Arena) heap(k int) []Hit {
	if cap(a.hits) < k {
		a.hits = make([]Hit, 0, k)
	}
	return a.hits[:0]
}

// TopKSparse scores every pool document against the sparse query vector
// and returns the k best under (score desc, doc ID asc). Accumulation
// visits only the query's non-zero dimensions, already ascending in a
// SparseVector, so each document's accumulator receives exactly the
// non-zero products of the dense cosine loop, in the same order. perturb,
// when non-nil, adds an extra per-document score component (the engine's
// deterministic SERP jitter) after the cosine is clamped to [0,1] — every
// document receives it, including those sharing no term with the query.
// a may be nil (a temporary arena is allocated); when non-nil the returned
// slice aliases it and a.Stats reports the call's work.
func (ix *Index) TopKSparse(q text.SparseVector, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	if k > n {
		k = n
	}
	if a == nil {
		a = &Arena{}
	}
	a.Stats = Stats{}
	if k <= 0 || n == 0 {
		return nil
	}
	acc := a.accumulator(n)
	for i, dim := range q.Dims {
		postings := ix.dims[dim]
		a.Stats.PostingsTouched += len(postings)
		qw := q.Weights[i]
		for _, p := range postings {
			acc[p.Doc] += float64(qw) * float64(p.Weight)
		}
	}
	a.Stats.DocsScored = n
	return ix.selectTopK(acc, k, perturb, a)
}

// selectTopK turns the accumulated cosines into the k best hits under
// (score desc, doc ID asc), applying the clamp and the perturbation.
func (ix *Index) selectTopK(acc []float64, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	// Bounded min-heap of the k best seen so far; the root is the current
	// worst, ordered by (score asc, doc ID desc) so "worse than root" means
	// "not in the top k".
	h := a.heap(k)
	for i := 0; i < n; i++ {
		s := acc[i]
		// Mirror text.Cosine's clamp before the perturbation is applied.
		if s > 1 {
			s = 1
		}
		id := ix.ids[i]
		if perturb != nil {
			s += perturb(id)
		}
		h = pushHit(h, k, Hit{Doc: i, ID: id, Score: s})
	}
	return sortHits(h, a)
}

// pushHit offers a hit to the bounded min-heap, evicting the current floor
// when the hit beats it.
func pushHit(h []Hit, k int, hit Hit) []Hit {
	if len(h) < k {
		h = append(h, hit)
		siftUp(h, len(h)-1)
		return h
	}
	if worse(hit, h[0]) {
		return h
	}
	h[0] = hit
	siftDown(h, 0)
	return h
}

// worse orders hits (score asc, doc ID desc): "worse than the heap root"
// means "not in the top k".
func worse(a, b Hit) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.ID > b.ID
}

// sortHits orders the selected hits (score desc, ID asc) — a total order,
// IDs are unique — yielding the same permutation the retired sort.Slice
// did. The hits sort through packed keys — float32-rounded score bits
// inverted in the high word (ascending uint64 order = descending score),
// the hit's position low — so the bulk of the work is a closure-free
// uint64 sort instead of a generic sort dragging 32-byte structs through a
// comparator. float32 rounding is monotone, so it can only collapse
// near-equal scores, never reorder distinct ones; runs that collide in
// float32 (scores within one ulp) are re-ordered by the exact comparator
// afterwards.
func sortHits(h []Hit, a *Arena) []Hit {
	if len(h) < 2 {
		return h
	}
	keys := a.keys[:0]
	for i, t := range h {
		keys = append(keys, uint64(^math.Float32bits(float32(t.Score)))<<32|uint64(uint32(i)))
	}
	a.keys = keys
	slices.Sort(keys)
	tmp := append(a.tmp[:0], h...)
	a.tmp = tmp
	for i, key := range keys {
		h[i] = tmp[uint32(key)]
	}
	for s := 0; s < len(h); {
		e := s + 1
		for e < len(h) && keys[e]>>32 == keys[s]>>32 {
			e++
		}
		for i := s + 1; i < e; i++ {
			for j := i; j > s && worse(h[j-1], h[j]); j-- {
				h[j-1], h[j] = h[j], h[j-1]
			}
		}
		s = e
	}
	return h
}

func siftUp(h []Hit, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h[i], h[parent]) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func siftDown(h []Hit, i int) {
	for {
		least := i
		if l := 2*i + 1; l < len(h) && worse(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && worse(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
