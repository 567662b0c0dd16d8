package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"sort"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

// digest accumulates a 64-bit FNV-1a hash over length-prefixed fields.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) str(s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	d.h.Write(n[:])
	d.h.Write([]byte(s))
}

func (d *digest) num(v int64) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(v))
	d.h.Write(n[:])
}

func (d *digest) flag(b bool) {
	if b {
		d.num(1)
	} else {
		d.num(0)
	}
}

func (d *digest) sum() uint64 { return d.h.Sum64() }

// outcome hashes every field of an outcome that a consumer can observe.
func (d *digest) outcome(o strategy.Outcome) {
	d.str(o.FactID)
	d.str(o.Model)
	d.str(string(o.Method))
	d.num(int64(o.Verdict))
	d.flag(o.Gold)
	d.flag(o.Correct)
	d.num(int64(o.Latency))
	d.num(int64(o.PromptTokens))
	d.num(int64(o.CompletionTokens))
	d.num(int64(o.Attempts))
	d.str(o.Explanation)
	d.num(int64(o.EvidenceChunks))
}

// gridDigest hashes a grid's outcomes in canonical cell order, so the
// digest is independent of the order the grid was configured in.
func gridDigest(outcomes map[core.Cell][]strategy.Outcome) uint64 {
	cells := make([]core.Cell, 0, len(outcomes))
	for c := range outcomes {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Dataset != b.Dataset {
			return a.Dataset < b.Dataset
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		return a.Model < b.Model
	})
	d := newDigest()
	for _, c := range cells {
		d.str(string(c.Dataset))
		d.str(string(c.Method))
		d.str(c.Model)
		outs := outcomes[c]
		d.num(int64(len(outs)))
		for _, o := range outs {
			d.outcome(o)
		}
	}
	return d.sum()
}

// checkVerdict compares a served verdict with the outcome the grid
// computed for the same (cell, fact). Verdicts are deterministic, so any
// difference is a correctness failure, whichever layer answered.
func checkVerdict(body []byte, cell core.Cell, want strategy.Outcome) error {
	var got serve.VerdictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding verdict: %w", err)
	}
	switch {
	case got.Dataset != string(cell.Dataset) || got.Method != string(cell.Method) ||
		got.Model != cell.Model || got.FactID != want.FactID:
		return fmt.Errorf("verdict for %s/%s/%s/%s answers %s/%s/%s/%s", cell.Dataset, cell.Method, cell.Model,
			want.FactID, got.Dataset, got.Method, got.Model, got.FactID)
	case got.Verdict != want.Verdict.String() || got.Gold != want.Gold || got.Correct != want.Correct ||
		got.Explanation != want.Explanation || got.Attempts != want.Attempts ||
		got.PromptTokens != want.PromptTokens || got.CompletionTokens != want.CompletionTokens ||
		got.LatencyMS != float64(want.Latency)/float64(time.Millisecond):
		return fmt.Errorf("verdict for %s/%s/%s/%s differs from the grid outcome", cell.Dataset, cell.Method,
			cell.Model, want.FactID)
	}
	return nil
}

// checkGold decodes a verdict and checks the parts that do not depend on
// the corpus epoch: the coordinates echo the request and the gold label is
// the fact's. It returns the verdict for the gold-label digest.
func checkGold(body []byte, cell core.Cell, factID string, gold bool) (*serve.VerdictResponse, error) {
	var got serve.VerdictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return nil, fmt.Errorf("decoding verdict: %w", err)
	}
	if got.Dataset != string(cell.Dataset) || got.Method != string(cell.Method) ||
		got.Model != cell.Model || got.FactID != factID {
		return nil, fmt.Errorf("verdict for %s/%s/%s/%s answers %s/%s/%s/%s", cell.Dataset, cell.Method,
			cell.Model, factID, got.Dataset, got.Method, got.Model, got.FactID)
	}
	if got.Gold != gold {
		return nil, fmt.Errorf("verdict for %s carries gold %v, want %v", factID, got.Gold, gold)
	}
	switch got.Verdict {
	case "true", "false", "invalid":
	default:
		return nil, fmt.Errorf("verdict for %s has unknown label %q", factID, got.Verdict)
	}
	return &got, nil
}

// consensusKey hashes the parts of a consensus answer that must not change
// between requests for the same fact.
func consensusKey(body []byte, factID string, gold bool) (uint64, error) {
	var got serve.ConsensusResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, fmt.Errorf("decoding consensus: %w", err)
	}
	if got.FactID != factID || got.Gold != gold {
		return 0, fmt.Errorf("consensus for %s answers %s (gold %v, want %v)", factID, got.FactID, got.Gold, gold)
	}
	d := newDigest()
	d.str(got.FactID)
	d.str(got.Dataset)
	d.str(got.Method)
	d.str(got.Mode)
	d.flag(got.Final)
	d.flag(got.Tie)
	d.flag(got.Gold)
	d.flag(got.Degraded)
	for _, v := range got.Votes {
		d.str(v.Model)
		d.str(v.Verdict)
	}
	for _, s := range got.Skipped {
		d.str(s)
	}
	return d.sum(), nil
}

// consensusDigests checks that every consensus answer for a fact is the
// same and hashes the per-fact answers in fact order.
type consensusDigests map[string]uint64

func (c consensusDigests) add(factID string, key uint64) error {
	if prev, ok := c[factID]; ok && prev != key {
		return fmt.Errorf("consensus for %s changed between requests", factID)
	}
	c[factID] = key
	return nil
}

func (c consensusDigests) sum() uint64 {
	ids := make([]string, 0, len(c))
	for id := range c {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	d := newDigest()
	for _, id := range ids {
		d.str(id)
		d.num(int64(c[id]))
	}
	return d.sum()
}
