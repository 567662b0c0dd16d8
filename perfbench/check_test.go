package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"factcheck/internal/core"
	"factcheck/internal/llm"
	"factcheck/internal/serve"
	"factcheck/internal/strategy"
)

func sampleOutcome() (core.Cell, strategy.Outcome) {
	cell := core.Cell{Dataset: "FactBench", Method: llm.MethodDKA, Model: llm.Gemma2}
	return cell, strategy.Outcome{FactID: "factbench-000001", Model: llm.Gemma2, Method: llm.MethodDKA,
		Verdict: strategy.True, Gold: true, Correct: true, Latency: 1234567 * time.Nanosecond,
		PromptTokens: 100, CompletionTokens: 20, Attempts: 1, Explanation: "because"}
}

func servedBody(t *testing.T, cell core.Cell, o strategy.Outcome, edit func(*serve.VerdictResponse)) []byte {
	t.Helper()
	v := serve.VerdictResponse{Dataset: string(cell.Dataset), Method: string(cell.Method), Model: cell.Model,
		FactID: o.FactID, Verdict: o.Verdict.String(), Gold: o.Gold, Correct: o.Correct,
		LatencyMS: float64(o.Latency) / float64(time.Millisecond), Attempts: o.Attempts,
		PromptTokens: o.PromptTokens, CompletionTokens: o.CompletionTokens, Explanation: o.Explanation, Source: "lru"}
	if edit != nil {
		edit(&v)
	}
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckVerdictRejectsCorruption(t *testing.T) {
	cell, o := sampleOutcome()
	if err := checkVerdict(servedBody(t, cell, o, nil), cell, o); err != nil {
		t.Fatalf("faithful verdict rejected: %v", err)
	}
	corruptions := map[string]func(*serve.VerdictResponse){
		"verdict":     func(v *serve.VerdictResponse) { v.Verdict = "false" },
		"gold":        func(v *serve.VerdictResponse) { v.Gold = false },
		"explanation": func(v *serve.VerdictResponse) { v.Explanation = "other" },
		"tokens":      func(v *serve.VerdictResponse) { v.PromptTokens++ },
		"latency":     func(v *serve.VerdictResponse) { v.LatencyMS += 0.001 },
		"fact":        func(v *serve.VerdictResponse) { v.FactID = "factbench-000002" },
		"model":       func(v *serve.VerdictResponse) { v.Model = llm.Mistral },
	}
	for name, edit := range corruptions {
		if err := checkVerdict(servedBody(t, cell, o, edit), cell, o); err == nil {
			t.Errorf("corrupted %s accepted", name)
		}
	}
	if err := checkVerdict([]byte("{not json"), cell, o); err == nil {
		t.Error("malformed body accepted")
	}
}

func TestCheckGold(t *testing.T) {
	cell, o := sampleOutcome()
	// The verdict itself may move with the corpus epoch; the gold label
	// may not.
	moved := servedBody(t, cell, o, func(v *serve.VerdictResponse) { v.Verdict = "false"; v.Correct = false })
	if _, err := checkGold(moved, cell, o.FactID, true); err != nil {
		t.Fatalf("epoch-dependent verdict rejected: %v", err)
	}
	if _, err := checkGold(moved, cell, o.FactID, false); err == nil {
		t.Error("wrong gold label accepted")
	}
	bad := servedBody(t, cell, o, func(v *serve.VerdictResponse) { v.Verdict = "maybe" })
	if _, err := checkGold(bad, cell, o.FactID, true); err == nil {
		t.Error("unknown verdict label accepted")
	}
}

func TestGridDigestDetectsCorruption(t *testing.T) {
	cell, o := sampleOutcome()
	grid := map[core.Cell][]strategy.Outcome{cell: {o, o}}
	ref := gridDigest(grid)
	corrupt := o
	corrupt.Verdict = strategy.False
	bad := map[core.Cell][]strategy.Outcome{cell: {o, corrupt}}
	if gridDigest(bad) == ref {
		t.Fatal("corrupted outcome left the digest unchanged")
	}
	rep := newReport()
	checkGrid(rep, options{}, bad)
	if rep.correct || rep.failed != 2 || rep.attempted != 2 {
		t.Errorf("corrupted grid: correct=%v failed=%d attempted=%d", rep.correct, rep.failed, rep.attempted)
	}
	// Cell order must not matter.
	other := core.Cell{Dataset: "YAGO", Method: llm.MethodRAG, Model: llm.Qwen25}
	a := gridDigest(map[core.Cell][]strategy.Outcome{cell: {o}, other: {o}})
	b := gridDigest(map[core.Cell][]strategy.Outcome{other: {o}, cell: {o}})
	if a != b {
		t.Error("digest depends on map order")
	}
}

func TestConsensusDigestStable(t *testing.T) {
	body := func(final bool) []byte {
		b, _ := json.Marshal(serve.ConsensusResponse{FactID: "f1", Dataset: "FactBench", Method: "DKA", Final: final,
			Gold: true, Mode: "adaptive", Votes: []serve.VoteItem{{Model: llm.Gemma2, Verdict: "true"}}})
		return b
	}
	c := consensusDigests{}
	k1, err := consensusKey(body(true), "f1", true)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.add("f1", k1); err != nil {
		t.Fatal(err)
	}
	if err := c.add("f1", k1); err != nil {
		t.Fatalf("repeated identical answer rejected: %v", err)
	}
	k2, _ := consensusKey(body(false), "f1", true)
	if err := c.add("f1", k2); err == nil || !strings.Contains(err.Error(), "changed") {
		t.Errorf("changed consensus answer accepted: %v", err)
	}
	if _, err := consensusKey(body(true), "f1", false); err == nil {
		t.Error("wrong gold label accepted")
	}
}
