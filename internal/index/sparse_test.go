package index

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

func sparseFixture() *Index {
	docs := []string{
		"alpha beta gamma delta",
		"alpha alpha beta",
		"gamma delta epsilon zeta",
		"unrelated filler content entirely",
		"alpha beta gamma delta epsilon zeta eta theta",
		"",
		"beta beta beta gamma",
		"zeta eta theta iota",
		"alpha epsilon iota",
		"delta delta gamma",
	}
	b := NewBuilder(len(docs))
	for i, d := range docs {
		b.Add(fmt.Sprintf("f-d%04d", i), text.ContentTokens(d))
	}
	return b.Build()
}

// TestTopKSparseMatchesDense pins sparse-query accumulation byte-identical
// to the dense TopK across queries and k values, with and without
// perturbation.
func TestTopKSparseMatchesDense(t *testing.T) {
	ix := sparseFixture()
	queries := []string{"alpha beta", "epsilon zeta eta", "nothing matches here", "", "delta", "alpha beta gamma delta epsilon"}
	perturbs := []func(string) float64{
		nil,
		func(id string) float64 { return 0.05 * det.Uniform("serp", "q", id) },
	}
	for _, q := range queries {
		for pi, perturb := range perturbs {
			for _, k := range []int{0, 1, 3, 6, ix.Docs(), 99} {
				dense := ix.TopK(text.Embed(q), k, perturb, nil)
				sparse := ix.TopKSparse(text.SparseEmbed(q), k, perturb, nil)
				if !reflect.DeepEqual(dense, sparse) {
					t.Fatalf("q=%q perturb=%d k=%d: dense %v != sparse %v", q, pi, k, dense, sparse)
				}
			}
		}
	}
}

// sparseEqualDense asserts TopKSparse == TopK over the dense equivalent of
// the query, byte for byte (DeepEqual covers Doc, ID and the float64 Score
// bits).
func sparseEqualDense(t *testing.T, ix *Index, query string, k int, perturb func(string) float64, label string) {
	t.Helper()
	want := ix.TopK(text.Embed(query), k, perturb, nil)
	got := ix.TopKSparse(text.SparseEmbed(query), k, perturb, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sparse != dense\nsparse: %v\ndense:  %v", label, got, want)
	}
}

// TestTopKSparseRandomized is a seeded fuzz sweep: random corpora, random
// queries, random k — sparse must stay byte-identical to dense.
func TestTopKSparseRandomized(t *testing.T) {
	vocab := strings.Fields("alpha beta gamma delta epsilon zeta eta theta iota kappa lambada muon neutrino quark boson lepton hadron photon gluon tachyon")
	rng := det.Source("pruned-fuzz")
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.IntN(60)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			var toks []string
			for w := rng.IntN(12); w > 0; w-- {
				toks = append(toks, vocab[rng.IntN(len(vocab))])
			}
			b.Add(fmt.Sprintf("f-d%04d", i), toks)
		}
		ix := b.Build()
		var qtoks []string
		for w := rng.IntN(6); w > 0; w-- {
			qtoks = append(qtoks, vocab[rng.IntN(len(vocab))])
		}
		k := 1 + rng.IntN(n+3)
		perturb := func(id string) float64 { return 0.05 * det.Uniform("serp", fmt.Sprint(trial), id) }
		sparseEqualDense(t, ix, strings.Join(qtoks, " "), k, perturb, fmt.Sprintf("trial=%d n=%d k=%d", trial, n, k))
	}
}

// FuzzTopKSparse lets the fuzzer pick corpus shape, k and the query; the
// invariant is always byte-equality with the dense reference.
func FuzzTopKSparse(f *testing.F) {
	f.Add(uint64(1), 3, "alpha beta")
	f.Add(uint64(7), 1, "gamma")
	f.Add(uint64(42), 100, "")
	f.Fuzz(func(t *testing.T, seed uint64, k int, query string) {
		if k < -1 || k > 1000 || len(query) > 200 {
			t.Skip()
		}
		vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"}
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := int(1 + rng.Uint64()%40)
		b := NewBuilder(n)
		for i := 0; i < n; i++ {
			var toks []string
			for w := rng.Uint64() % 10; w > 0; w-- {
				toks = append(toks, vocab[rng.Uint64()%uint64(len(vocab))])
			}
			b.Add(fmt.Sprintf("f-d%04d", i), toks)
		}
		ix := b.Build()
		perturb := func(id string) float64 { return 0.05 * det.Uniform("serp", query, id) }
		sparseEqualDense(t, ix, query, k, perturb, fmt.Sprintf("seed=%d k=%d q=%q", seed, k, query))
	})
}

// TestTopKSparseEdgeCases covers the degenerate inputs: k <= 0, k beyond
// the pool, an all-zero query vector and an empty index.
func TestTopKSparseEdgeCases(t *testing.T) {
	b := NewBuilder(5)
	for i := 0; i < 5; i++ {
		b.Add(fmt.Sprintf("f-d%04d", i), []string{"alpha", "beta"})
	}
	ix := b.Build()
	perturb := func(id string) float64 { return 0.05 * det.Uniform("edge", id) }
	if got := ix.TopKSparse(text.SparseEmbed("alpha"), 0, perturb, nil); got != nil {
		t.Errorf("k=0: got %d hits, want none", len(got))
	}
	if got := ix.TopKSparse(text.SparseEmbed("alpha"), -3, perturb, nil); got != nil {
		t.Errorf("k<0: got %d hits, want none", len(got))
	}
	if got := ix.TopKSparse(text.SparseEmbed("alpha"), 99, perturb, nil); len(got) != 5 {
		t.Errorf("k>pool: got %d hits, want 5", len(got))
	}
	// All-zero query: every document scores clamp(0)+perturb.
	sparseEqualDense(t, ix, "", 3, perturb, "all-zero query")
	if got := ix.TopKSparse(text.SparseVector{}, 2, nil, nil); len(got) != 2 ||
		got[0].ID != "f-d0000" || got[1].ID != "f-d0001" {
		t.Errorf("all-zero query, nil perturb: got %v, want the two smallest IDs at score 0", got)
	}
	empty := NewBuilder(0).Build()
	if got := empty.TopKSparse(text.SparseEmbed("alpha"), 4, perturb, nil); got != nil {
		t.Errorf("empty index: got %d hits, want none", len(got))
	}
}

// TestAddVecMatchesAdd pins the vector-ingest build path against the
// term-stream path: identical postings, identical rankings.
func TestAddVecMatchesAdd(t *testing.T) {
	docs := [][]string{
		text.ContentTokens("alpha beta gamma"),
		text.ContentTokens("beta beta delta"),
		text.ContentTokens("epsilon"),
	}
	a := NewBuilder(len(docs))
	v := NewBuilder(len(docs))
	for i, terms := range docs {
		id := fmt.Sprintf("f-d%04d", i)
		a.Add(id, terms)
		v.AddVec(id, text.SparseEmbedTokens(terms))
	}
	ia, iv := a.Build(), v.Build()
	if ia.Postings() != iv.Postings() || ia.Docs() != iv.Docs() {
		t.Fatalf("shape mismatch: %d/%d postings, %d/%d docs",
			ia.Postings(), iv.Postings(), ia.Docs(), iv.Docs())
	}
	q := text.SparseEmbed("alpha beta delta epsilon")
	if got, want := iv.TopKSparse(q, 3, nil, nil), ia.TopKSparse(q, 3, nil, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("rankings differ: %v vs %v", got, want)
	}
}
