package rerank

import (
	"reflect"
	"sort"
	"testing"

	"factcheck/internal/text"
)

var scorePairs = []struct{ ref, cand string }{
	{"Marie Curie was married to Pierre Curie.", "Marie Curie and Pierre Curie: the record"},
	{"Marie Curie was married to Pierre Curie.", "Regional news roundup"},
	{"Who founded the company?", "The company was founded by its chairman in 1901."},
	{"", "non-empty candidate"},
	{"shared tokens only", "shared tokens only"},
}

// denseRank is the reference ranking: every candidate scored by the dense
// Score (both strings re-embedded per call), stable-sorted by score.
func denseRank(c *CrossEncoder, ref string, cands []string) []Ranked {
	out := make([]Ranked, len(cands))
	for i, cand := range cands {
		out[i] = Ranked{Index: i, Score: c.Score(ref, cand)}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// TestRankVecsMatchesRank pins the vector scoring path bit-identical to the
// dense Score for both calibration profiles: ScoreBatch pair by pair, and
// RankVecs over precomputed candidate vectors and Rank over raw texts
// against the dense reference ranking.
func TestRankVecsMatchesRank(t *testing.T) {
	for _, ce := range []*CrossEncoder{NewQuestionRanker(), NewDocumentRanker()} {
		for _, p := range scorePairs {
			dense := ce.Score(p.ref, p.cand)
			sparse := ce.ScoreBatch(text.SparseEmbed(p.ref), p.ref)(text.SparseEmbed(p.cand), p.cand)
			if dense != sparse {
				t.Errorf("%s: ScoreBatch(%q)(%q) = %v, Score = %v", ce.Name(), p.ref, p.cand, sparse, dense)
			}
		}
	}

	cases := []struct {
		ce    *CrossEncoder
		ref   string
		texts []string
	}{
		{NewQuestionRanker(), "Marie Curie was married to Pierre Curie.", []string{
			"Who was Marie Curie married to?",
			"Was Marie Curie married to Pierre Curie?",
			"Which prize did Marie Curie win?",
			"Regional news roundup",
			"",
		}},
		{NewDocumentRanker(), "The subject was born in the capital.", []string{
			"The subject was born in the capital. Multiple records agree on this point.",
			"Contrary to some claims, it is not the case that the subject was born there.",
			"Archive digest",
		}},
	}
	for _, tc := range cases {
		want := denseRank(tc.ce, tc.ref, tc.texts)
		cands := make([]Candidate, len(tc.texts))
		for i, c := range tc.texts {
			cands[i] = Candidate{Text: c, Vec: text.SparseEmbed(c)}
		}
		if got := RankVecs(tc.ce, text.SparseEmbed(tc.ref), tc.ref, cands); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: RankVecs = %v, dense ranking = %v", tc.ce.Name(), got, want)
		}
		if got := Rank(tc.ce, tc.ref, tc.texts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Rank = %v, dense ranking = %v", tc.ce.Name(), got, want)
		}
	}
}
