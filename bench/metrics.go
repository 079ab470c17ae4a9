package main

// metricSpec names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds (TestBenchmarkJSONMatchesHarness holds the two
// together); Moves is the prediction later issues check — the end-to-end
// metric and workload the layer's number should move — which the contract's
// schema has no key for, so it lives here and in README.md.
type metricSpec struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change is rejected.
	Bound float64
	Moves string
}

// endToEndMetrics are what a Harmony client sees, reported by every workload
// on the untraced run. The issue's fail_ratio is the result line's failed ÷
// attempted; update_ms_p50 and resume_ms_mean exist on two workloads and one,
// and the contract wants every end-to-end metric from every workload, so
// they are hclient.* per-layer metrics. The timing bounds are the widest the
// contract allows: on the shared reference box a fixed spin loop alone runs a
// fifth slower for minutes at a time, and ten runs' quartiles must stay
// inside the bound.
var endToEndMetrics = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cycles_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "admit_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "end_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heartbeat_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "status_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_cpu_ms_per_cycle", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "server_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

const (
	movesProtocol  = "status_ms_p50 @ db-crowd; heartbeat_ms_p50 everywhere"
	movesHclient   = "heartbeat_ms_p50, cycles_per_s @ squeeze-small; hclient.resume_ms_mean @ replica-squeeze"
	movesServer    = "admit_ms_p50, end_ms_p50 @ squeeze-small"
	movesRSL       = "admit_ms_p50 @ squeeze-small, wide-greedy (small share)"
	movesVet       = "admit_ms_p50 @ db-crowd; ~0 elsewhere"
	movesBounds    = "admit_ms_p50 @ wide-greedy"
	movesCore      = "admit_ms_p50, end_ms_p50, cycles_per_s, server_cpu_ms_per_cycle @ wide-greedy, db-crowd; status_ms_p50 @ db-crowd; hclient.update_ms_p50 @ squeeze-small; server_rss_mb via alloc"
	movesMatch     = "as core @ wide-greedy"
	movesPredict   = "as core @ db-crowd"
	movesResource  = "as core @ wide-greedy"
	movesNamespace = "hclient.update_ms_p50 @ squeeze-small"
	movesReplog    = "admit_ms_p50, end_ms_p50, setup_s @ replica-squeeze"
	movesReplica   = "admit_ms_p50, end_ms_p50, cycles_per_s @ replica-squeeze; hclient.resume_ms_mean"
)

// perLayerMetrics are reported by every workload on the traced run; a metric
// the workload does not exercise (no pushed updates, no replicas, a tail
// with fewer than ten samples beyond it) is reported as 0.
var perLayerMetrics = []metricSpec{
	{Name: "protocol.encode_us_per_msg", Unit: "us", Better: "lower", Moves: movesProtocol},
	{Name: "protocol.decode_us_per_msg", Unit: "us", Better: "lower", Moves: movesProtocol},
	{Name: "protocol.bytes_per_cycle", Unit: "B", Better: "lower", Moves: movesProtocol},

	{Name: "hclient.call_overhead_us", Unit: "us", Better: "lower", Moves: movesHclient},
	{Name: "hclient.conn_setup_us", Unit: "us", Better: "lower", Moves: movesHclient},
	{Name: "hclient.admit_ms_p90", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.admit_ms_p99", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.end_ms_p90", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.update_ms_p50", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.update_ms_p90", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.status_ms_p90", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.resume_ms_mean", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.resume_ms_p50", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.resume_ms_max", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.reconnects", Unit: "count", Better: "lower", Moves: movesHclient},
	{Name: "hclient.resumes", Unit: "count", Better: "lower", Moves: movesHclient},
	{Name: "hclient.replays", Unit: "count", Better: "lower", Moves: movesHclient},
	{Name: "hclient.redirects", Unit: "count", Better: "lower", Moves: movesHclient},
	{Name: "hclient.reader_late_ms_p50", Unit: "ms", Better: "lower", Moves: movesHclient},
	{Name: "hclient.trace_overhead_pct", Unit: "%", Better: "lower", Moves: movesHclient},

	{Name: "server.admit_overhead_us", Unit: "us", Better: "lower", Moves: movesServer},
	{Name: "server.update_skew_us", Unit: "us", Better: "lower", Moves: movesServer},

	{Name: "rsl.decode_us", Unit: "us", Better: "lower", Moves: movesRSL},
	{Name: "rsl.eval_ns", Unit: "ns", Better: "lower", Moves: movesRSL},

	{Name: "vet.script_us", Unit: "us", Better: "lower", Moves: movesVet},
	{Name: "vet.workload_us", Unit: "us", Better: "lower", Moves: movesVet},

	{Name: "bounds.analyze_us", Unit: "us", Better: "lower", Moves: movesBounds},

	{Name: "core.register_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.unregister_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.reeval_event_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.reeval_noop_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.node_down_ms", Unit: "ms", Better: "lower", Moves: movesCore},
	{Name: "core.candidates_per_cycle", Unit: "count", Better: "lower", Moves: movesCore},
	{Name: "core.memo_hit_ratio", Unit: "ratio", Better: "higher", Moves: movesCore},
	{Name: "core.prune_ratio", Unit: "ratio", Better: "higher", Moves: movesCore},
	{Name: "core.events_per_cycle", Unit: "count", Better: "lower", Moves: movesCore},
	{Name: "core.register_alloc_kb", Unit: "KB", Better: "lower", Moves: movesCore},
	{Name: "core.register_allocs", Unit: "count", Better: "lower", Moves: movesCore},
	{Name: "core.parallel_speedup", Unit: "ratio", Better: "higher", Moves: movesCore},

	{Name: "match.match_us", Unit: "us", Better: "lower", Moves: movesMatch},
	{Name: "match.match_allocs", Unit: "count", Better: "lower", Moves: movesMatch},

	{Name: "predict.for_option_us", Unit: "us", Better: "lower", Moves: movesPredict},

	{Name: "resource.snapshot_us", Unit: "us", Better: "lower", Moves: movesResource},
	{Name: "resource.fork_ns", Unit: "ns", Better: "lower", Moves: movesResource},
	{Name: "resource.reserve_us", Unit: "us", Better: "lower", Moves: movesResource},
	{Name: "resource.nodes_us", Unit: "us", Better: "lower", Moves: movesResource},

	{Name: "namespace.walk_us", Unit: "us", Better: "lower", Moves: movesNamespace},

	{Name: "replog.append_fsync_us", Unit: "us", Better: "lower", Moves: movesReplog},
	{Name: "replog.entry_bytes", Unit: "B", Better: "lower", Moves: movesReplog},
	{Name: "replog.snapshot_save_ms", Unit: "ms", Better: "lower", Moves: movesReplog},
	{Name: "replog.recover_ms", Unit: "ms", Better: "lower", Moves: movesReplog},

	{Name: "replica.propose_ms_p50", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.propose_mem_ms_p50", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.commit_overhead_ms", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.end_overhead_ms", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.follower_lag_ms_p50", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.election_ms_p50", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.catchup_ms_p50", Unit: "ms", Better: "lower", Moves: movesReplica},
	{Name: "replica.elections", Unit: "count", Better: "lower", Moves: movesReplica},
}
