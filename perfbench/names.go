package main

// perLayerUnits lists every per-layer metric BENCHMARK.json declares, with
// its unit. A traced run reports each of them that it can observe.
var perLayerUnits = map[string]string{
	"world.build_s":                  "s",
	"dataset.build_s":                "s",
	"search.engine_build_s":          "s",
	"results.open_s":                 "s",
	"results.put_calls":              "count",
	"results.put_s":                  "s",
	"results.bytes_written":          "B",
	"serve.store_hits":               "count",
	"sched.busy_ratio":               "ratio",
	"sched.tail_s":                   "s",
	"strategy.verify_calls":          "count",
	"strategy.verify_s.DKA":          "s",
	"strategy.verify_s.GIV-Z":        "s",
	"strategy.verify_s.GIV-F":        "s",
	"strategy.verify_s.RAG":          "s",
	"rag.retrieve_calls":             "count",
	"rag.retrieve_self_s":            "s",
	"rag.questions_s":                "s",
	"rag.rerank_s":                   "s",
	"rag.chunk_s":                    "s",
	"rag.evidence_reuse_ratio":       "ratio",
	"search.search_calls":            "count",
	"search.search_self_s":           "s",
	"search.fetch_evidence_s":        "s",
	"search.pool_hit_ratio":          "ratio",
	"search.pools_evicted":           "count",
	"corpus.materialize_calls":       "count",
	"corpus.materialize_s":           "s",
	"index.postings_per_query":       "count",
	"index.docs_scored_per_query":    "count",
	"index.blocks_skipped_per_query": "count",
	"llm.generate_calls":             "count",
	"llm.generate_s":                 "s",
	"llm.calls_per_verification":     "ratio",
	"llm.prompt_tokens":              "count",
	"llm.sim_latency_s":              "s",
	"consensus.decide_s":             "s",
	"consensus.votes_per_request":    "count",
	"consensus.skip_ratio":           "ratio",
	"consensus.escalation_ratio":     "ratio",
	"serve.handler_s.verify":         "s",
	"serve.handler_s.consensus":      "s",
	"serve.handler_s.documents":      "s",
	"serve.transport_residual_ms":    "ms",
	"serve.ratelimit_s":              "s",
	"serve.admit_s":                  "s",
	"serve.lru_s":                    "s",
	"serve.coalesce_s":               "s",
	"serve.store_s":                  "s",
	"serve.exec_wait_s":              "s",
	"serve.verify_s":                 "s",
	"serve.lru_hit_ratio":            "ratio",
	"serve.coalesced_ratio":          "ratio",
	"serve.rejected":                 "count",
	"serve.ingest_applied":           "count",
	"serve.ingest_swept":             "count",
	"serve.recomputed_per_doc":       "ratio",
	"serve.cell_fills":               "count",
	"serve.computed":                 "count",
	"go.gc_cpu_ratio":                "ratio",
	"go.alloc_bytes_per_op":          "B",
	"go.gc_cycles":                   "count",
	"loadgen.lateness_p99_ms":        "ms",
	"trace.unattributed_ratio":       "ratio",
	"trace.overhead_ratio":           "ratio",
}

// inServiceLayers are the per-layer metrics a serving workload cannot
// observe from outside the service whenever the service computes
// verdicts: the models, verifiers and fill scheduler it calls itself, its
// store writes, its evidence cache, and the retrieval spans the grid's
// prefetch wrapper would have opened.
var inServiceLayers = []string{
	"llm.generate_calls", "llm.generate_s", "llm.calls_per_verification", "llm.prompt_tokens", "llm.sim_latency_s",
	"strategy.verify_calls", "strategy.verify_s.DKA", "strategy.verify_s.GIV-Z", "strategy.verify_s.GIV-F",
	"strategy.verify_s.RAG", "sched.busy_ratio", "sched.tail_s", "results.put_s", "rag.evidence_reuse_ratio",
	"rag.retrieve_self_s",
}

// fillIdleLayers reports 0 for every per-layer metric of a layer the
// workload does not exercise (for example the serving layers on the grid),
// so a 0 always means no work. Metrics marked not observed keep their
// notObservedValue.
func fillIdleLayers(rep *report) {
	for name, unit := range perLayerUnits {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, 0, unit, 0, "layer not exercised on this workload")
		}
	}
	for name := range rep.metrics {
		if _, ok := perLayerUnits[name]; !ok {
			delete(rep.metrics, name)
		}
	}
}

// declaredEndToEnd are the end-to-end metrics BENCHMARK.json declares,
// with a regression bound. Every workload measures each of them, and the
// JSON result line of an untraced run holds exactly these.
var declaredEndToEnd = []string{"setup_s", "peak_rss_mb", "grid_verifications_per_s"}

// endToEndUnits lists every end-to-end metric an untraced run may print,
// with its unit. Each workload prints the ones its traffic exercises (a
// p99 only when there is a full window of samples) on the lines before
// the result; only declaredEndToEnd go into the result line (README.md
// has both tables).
var endToEndUnits = map[string]string{
	"setup_s":                  "s",
	"peak_rss_mb":              "MiB",
	"grid_verifications_per_s": "1/s",
	"verify_p50_ms":            "ms",
	"verify_p99_ms":            "ms",
	"consensus_p50_ms":         "ms",
	"consensus_p99_ms":         "ms",
	"ingest_p50_ms":            "ms",
	"ingest_p99_ms":            "ms",
	"sustained_rps":            "req/s",
	"saturated_rps":            "req/s",
	"cpu_us_per_request":       "us",
}
