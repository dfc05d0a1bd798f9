package main

import "oodb/internal/obs"

// counter reads one obs counter. It snapshots the whole registry, so only
// the traced window calls it around single operations.
func counter(name string) uint64 { return obs.TakeSnapshot().Counters[name] }

// layerMetrics is the --trace 1 metric set, from the traced window: obs
// counter and histogram deltas at the window's edges, spans around the
// benchmark's calls into each layer, and runtime deltas. Every name is
// reported on every workload; a layer the workload does not reach reads 0.
// The untraced window of the same run gives the tracing overhead.
func layerMetrics(plain, tw *windowStats) map[string]metric {
	cnt := func(name string) float64 {
		return float64(tw.after.Counters[name] - tw.before.Counters[name])
	}
	hist := func(name string) (sum, n float64) {
		a, b := tw.after.Histograms[name], tw.before.Histograms[name]
		return float64(a.Sum - b.Sum), float64(a.Count - b.Count)
	}
	hmean := func(name string) float64 {
		s, n := hist(name)
		return ratio(s, n)
	}
	ops := 0
	for _, n := range tw.count {
		ops += n
	}
	commits := float64(tw.count[kCommit])
	queries := float64(tw.count[kSnapQuery] + tw.count[kLockedQuery] + tw.count[kScatterQuery])
	sp := &tw.spans
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	// server (with proto and client)
	reqUs := hmean("server_request_latency_ns") / 1e3
	_, reqs := hist("server_request_latency_ns")
	set("server.request_us", "us", reqUs)
	wire := sp.meanUs(spClientGet, spClientFetch, spClientUpd, spClientIns, spClientDel, spClientBegin, spClientCommit)
	if wire > 0 {
		wire -= reqUs
	}
	set("server.wire_overhead_us", "us", wire)
	set("server.bytes_out_per_op", "B", ratio(cnt("server_bytes_out_total"), float64(ops)))
	shed := cnt("server_requests_shed_total")
	set("server.shed_share", "share", ratio(shed, reqs+shed))

	// workspace
	hits := cnt("workspace_cache_descriptor_hits")
	set("workspace.cache_hit_ratio", "share", ratio(hits, hits+cnt("workspace_fetch_lazy_loads")))

	// storage
	bh, bm := cnt("storage_buffer_fetch_hits"), cnt("storage_buffer_fetch_misses")
	set("storage.buffer_hit_ratio", "share", ratio(bh, bh+bm))
	set("storage.misses_per_fetch", "count", ratio(bm, float64(sp.count[spCoreFetch])))
	set("storage.page_read_us", "us", hmean("storage_page_read_ns")/1e3)
	set("storage.evictions_per_s", "1/s", cnt("storage_buffer_evictions_total")/tw.elapsed.Seconds())
	set("storage.coalesced_waits", "count", cnt("storage_buffer_coalesced_waits"))

	// core and schema
	set("core.fetch_us", "us", sp.meanUs(spCoreFetch))
	set("schema.attr_get_us", "us", sp.meanUs(spSchemaGet))
	set("core.commit_us", "us", sp.meanUs(spCoreCommit))
	set("core.update_us", "us", sp.meanUs(spCoreUpdate))

	// wal
	set("wal.commit_wait_us", "us", hmean("wal_commit_wait_ns")/1e3)
	set("wal.fsync_us", "us", hmean("wal_fsync_latency_ns")/1e3)
	set("wal.batch_mean", "count", hmean("wal_group_commit_batch"))
	set("wal.bytes_per_commit", "B", ratio(cnt("wal_append_bytes_total"), commits))

	// txn
	set("txn.lock_wait_ms", "ms", sp.meanUs(spTxnLock)/1e3)

	// query and index
	runMs := sp.meanUs(spQueryRun) / 1e3
	if sp.count[spQueryRun] == 0 && tw.legs > 0 {
		// Through the router the query runs on the members: its
		// member-side request time is the leg time.
		runMs = float64(tw.legNs) / float64(tw.legs) / 1e6
	}
	set("query.run_ms", "ms", runMs)
	set("query.rows_examined_per_row", "share", ratio(float64(tw.rowsExamined), float64(tw.rowsReturned)))
	set("query.fanout_width", "count", hmean("query_scan_fanout_width"))
	set("query.parse_us", "us", sp.meanUs(spQueryParse))
	set("query.snapshot_p50_ms", "ms", tw.stats(kSnapQuery).p50/1e6)
	set("query.locked_p50_ms", "ms", tw.stats(kLockedQuery).p50/1e6)
	set("index.probes_per_query", "count", ratio(cnt("index_probe_lookups_total"), queries))
	set("index.probe_depth", "count", hmean("index_probe_depth_levels"))

	// mvcc
	set("mvcc.chain_length", "count", hmean("mvcc_chain_length_versions"))
	set("mvcc.chains_live", "count", float64(tw.after.Gauges["mvcc_chains_live_now"]))
	set("mvcc.versions_per_commit", "count", ratio(cnt("mvcc_version_writes_total"), commits))

	// shard
	scatterMs := hmean("shard_scatter_latency_ns") / 1e6
	legMs := 0.0
	if tw.legs > 0 {
		legMs = float64(tw.legNs) / float64(tw.legs) / 1e6
	}
	routerMs := 0.0
	if scatterMs > 0 {
		routerMs = scatterMs - legMs
	}
	set("shard.scatter_ms", "ms", scatterMs)
	set("shard.leg_ms", "ms", legMs)
	set("shard.router_ms", "ms", routerMs)
	set("shard.retries", "count", cnt("shard_retries_total"))

	// Go runtime
	set("runtime.alloc_bytes_per_op", "B", ratio(float64(tw.rtAfter.TotalAlloc-tw.rtBefore.TotalAlloc), float64(ops)))
	set("runtime.gc_pause_ms", "ms", float64(tw.rtAfter.PauseTotalNs-tw.rtBefore.PauseTotalNs)/1e6)
	set("runtime.gc_cycles", "count", float64(tw.rtAfter.NumGC-tw.rtBefore.NumGC))

	// Self time per completed operation, by layer, from the spans.
	for _, layer := range spanLayers {
		set("trace.self_"+layer+"_us", "us", ratio(float64(sp.layerSelfNs(layer)), float64(ops))/1e3)
	}
	// Tracing overhead: the traced window against the untraced one.
	pm, tm := plain.stream(mainStream), tw.stream(mainStream)
	set("trace.overhead_main_per_s", "share", 1-ratio(tm.perS, pm.perS))
	set("trace.overhead_main_p50", "share", ratio(tm.p50, pm.p50)-1)
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
