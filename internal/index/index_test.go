package index

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// buildFixture indexes n synthetic documents and returns the index plus the
// dense vectors the linear-scan reference would have embedded.
func buildFixture(n int) (*Index, []text.Vector, []string) {
	bodies := []string{
		"Alexander married the duchess in the capital city",
		"the museum catalogue lists the painting under disputed provenance",
		"regional sports results and league standings for the season",
		"the committee awarded the prize for contributions to chemistry",
		"", // extraction failure: empty body
		"Alexander later founded a society for historical preservation",
	}
	b := NewBuilder(n)
	var vecs []text.Vector
	var ids []string
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("fact-000001-d%04d", i)
		body := bodies[i%len(bodies)]
		title := fmt.Sprintf("document %d", i)
		terms := text.ContentTokens(title + " " + body)
		b.Add(id, terms)
		vecs = append(vecs, text.Embed(title+" "+body))
		ids = append(ids, id)
	}
	return b.Build(), vecs, ids
}

// TopK is the dense-query reference rung: term-at-a-time accumulation
// over all text.VectorDim dimensions of a dense query, ascending — the
// order the dense cosine loop adds products — then the production
// selection. TopKSparse must match it byte for byte.
func (ix *Index) TopK(q text.Vector, k int, perturb func(docID string) float64, a *Arena) []Hit {
	n := len(ix.ids)
	if k > n {
		k = n
	}
	if k <= 0 || n == 0 {
		return nil
	}
	if a == nil {
		a = &Arena{}
	}
	acc := a.accumulator(n)
	for dim := 0; dim < text.VectorDim; dim++ {
		qw := q[dim]
		if qw == 0 {
			continue
		}
		for _, p := range ix.dims[int32(dim)] {
			acc[p.Doc] += float64(qw) * float64(p.Weight)
		}
	}
	return ix.selectTopK(acc, k, perturb, a)
}

// scanRank is the dense reference ranking: cosine over full vectors, full
// sort, truncate.
func scanRank(q text.Vector, vecs []text.Vector, ids []string, k int, perturb func(string) float64) []Hit {
	hits := make([]Hit, len(ids))
	for i := range ids {
		s := text.Cosine(q, vecs[i])
		if perturb != nil {
			s += perturb(ids[i])
		}
		hits[i] = Hit{Doc: i, ID: ids[i], Score: s}
	}
	sort.SliceStable(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].ID < hits[j].ID
	})
	if len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

func TestTopKMatchesDenseScan(t *testing.T) {
	ix, vecs, ids := buildFixture(50)
	queries := []string{
		"Alexander married the duchess",
		"prize for chemistry",
		"league standings",
		"completely unrelated query about submarines",
		"document",
	}
	perturb := func(id string) float64 { return 0.05 * det.Uniform("serp-test", id) }
	for _, q := range queries {
		qv := text.Embed(q)
		for _, k := range []int{1, 3, 10, 50, 100} {
			got := ix.TopK(qv, k, perturb, nil)
			want := scanRank(qv, vecs, ids, k, perturb)
			if len(got) != len(want) {
				t.Fatalf("q=%q k=%d: %d hits, want %d", q, k, len(got), len(want))
			}
			for i := range want {
				if got[i].ID != want[i].ID || got[i].Score != want[i].Score || got[i].Doc != want[i].Doc {
					t.Fatalf("q=%q k=%d hit %d: got %+v, want %+v", q, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestTopKTieBreakByDocID(t *testing.T) {
	// Identical documents tie on cosine; with no perturbation the order must
	// fall back to doc ID ascending.
	// Pool order deliberately disagrees with ID order.
	b := NewBuilder(4)
	ids := []string{"f-d0003", "f-d0001", "f-d0002", "f-d0000"}
	for _, id := range ids {
		b.Add(id, []string{"same", "tokens"})
	}
	ix := b.Build()
	want := []string{"f-d0000", "f-d0001", "f-d0002", "f-d0003"}
	for _, hits := range [][]Hit{
		ix.TopK(text.Embed("same tokens"), 4, nil, nil),
		ix.TopKSparse(text.SparseEmbed("same tokens"), 4, nil, nil),
	} {
		for i, w := range want {
			if hits[i].ID != w {
				t.Fatalf("hit %d = %q, want %q (tie-break by ID)", i, hits[i].ID, w)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	ix, _, _ := buildFixture(5)
	if got := ix.TopK(text.Embed("anything"), 0, nil, nil); got != nil {
		t.Errorf("k=0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(text.Embed("anything"), -1, nil, nil); got != nil {
		t.Errorf("k<0: got %d hits, want none", len(got))
	}
	if got := ix.TopK(text.Embed("anything"), 99, nil, nil); len(got) != 5 {
		t.Errorf("k>pool: got %d hits, want 5", len(got))
	}
	empty := NewBuilder(0).Build()
	if got := empty.TopK(text.Embed("anything"), 10, nil, nil); got != nil {
		t.Errorf("empty index: got %d hits, want none", len(got))
	}
	if empty.Docs() != 0 || empty.Postings() != 0 {
		t.Errorf("empty index stats: docs=%d postings=%d", empty.Docs(), empty.Postings())
	}
}

func TestIndexStats(t *testing.T) {
	b := NewBuilder(2)
	b.Add("a-d0000", []string{"alpha", "beta"})
	b.Add("a-d0001", []string{"alpha"})
	ix := b.Build()
	if ix.Docs() != 2 {
		t.Errorf("Docs = %d, want 2", ix.Docs())
	}
	// alpha appears in two docs, beta in one: three postings (assuming no
	// hash collision between two short tokens' dimensions, which holds for
	// these literals).
	if ix.Postings() != 3 {
		t.Errorf("Postings = %d, want 3", ix.Postings())
	}
	if ix.ID(0) != "a-d0000" || ix.ID(1) != "a-d0001" {
		t.Errorf("ID table wrong: %q %q", ix.ID(0), ix.ID(1))
	}
	// The work counters: every posting of alpha and beta, every document.
	a := &Arena{}
	ix.TopKSparse(text.SparseEmbed("alpha beta"), 1, nil, a)
	if a.Stats != (Stats{PostingsTouched: 3, DocsScored: 2}) {
		t.Errorf("Stats = %+v, want 3 postings touched, 2 docs scored", a.Stats)
	}
}

// TestArenaReuse runs many different queries through one arena on both
// rungs: results must be identical to fresh-arena calls (stale
// accumulators or heap state would corrupt them).
func TestArenaReuse(t *testing.T) {
	ix, _, _ := buildFixture(40)
	a := &Arena{}
	queries := []string{"Alexander married the duchess", "prize for chemistry", "league standings", "", "document"}
	perturb := func(id string) float64 { return 0.05 * det.Uniform("reuse", id) }
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			for _, k := range []int{1, 5, 40} {
				qv := text.SparseEmbed(q)
				want := ix.TopKSparse(qv, k, perturb, nil)
				for _, got := range [][]Hit{
					ix.TopKSparse(qv, k, perturb, a),
					ix.TopK(text.Embed(q), k, perturb, a),
				} {
					if !reflect.DeepEqual(append([]Hit(nil), got...), want) {
						t.Fatalf("round %d q=%q k=%d: arena-reuse result diverged", round, q, k)
					}
				}
			}
		}
	}
}
