package main

import (
	"time"

	"gbc/internal/obs"
)

// ok reports whether a record is a correct answer served as served.
func ok(r record, served string) bool { return r.Err == "" && r.Served == served }

// rtts returns the round trips, in milliseconds, of the correct records
// that pass keep.
func rtts(recs []record, keep func(record) bool) []float64 {
	var ds []time.Duration
	for _, r := range recs {
		if r.Err == "" && keep(r) {
			ds = append(ds, r.RTT)
		}
	}
	return millis(ds)
}

func isSolve(r record) bool { return r.Served == "solve" }

// endToEnd fills the metrics a user of gbcd sees, from an untraced phase.
func endToEnd(m map[string]metric, recs []record, wall time.Duration, rssMB float64) {
	solves := rtts(recs, isSolve)
	m["solve_p50_ms"] = metric{percentile(solves, 50), "ms"}
	if len(solves) >= p90Min {
		m["solve_p90_ms"] = metric{percentile(solves, 90), "ms"}
	}
	completed := 0
	for _, r := range recs {
		if r.Status/100 == 2 {
			completed++
		}
	}
	m["requests_per_s"] = metric{float64(completed) / wall.Seconds(), "1/s"}
	m["peak_rss_mb"] = metric{rssMB, "MB"}
}

// perLayer fills the per-layer metrics from the traced phase, the server
// counters before and after it, and the layer probes.
func perLayer(m map[string]metric, recs []record, before, after obs.Stats, warmSets int, probed map[string]float64) {
	units := map[string]string{
		"graph.open_ms":                   "ms",
		"graph.apply_delta_us":            "us",
		"sampling.ns_per_sample.w1":       "ns",
		"sampling.ns_per_sample.w2":       "ns",
		"sampling.ns_per_sample.fast_w2":  "ns",
		"sampling.repair_ms":              "ms",
		"coverage.greedy_ms":              "ms",
		"coverage.arena_bytes_per_sample": "B",
		"core.solve_ms":                   "ms",
		"core.grow_self_ms":               "ms",
		"core.iter_self_ms":               "ms",
		"core.iterations":                 "count",
		"wire.result_marshal_us":          "us",
		"wire.arena_encode_ns_per_sample": "ns",
		"wire.arena_decode_ns_per_sample": "ns",
		"wire.arena_bytes_per_sample":     "B",
		"shard.grow_range_ms_per_ksample": "ms",
		"shard.draw_range_ms_per_ksample": "ms",
	}
	for name, v := range probed {
		m[name] = metric{v, units[name]}
	}

	var samples, overhead []float64
	topk, cached, coalesced, patches, solves := 0, 0, 0, 0, 0
	for _, r := range recs {
		switch {
		case r.Class == classPatch:
			patches++
			continue
		case ok(r, "solve"):
			solves++
			samples = append(samples, float64(r.Result.Samples))
			overhead = append(overhead, float64(r.RTT-r.Elapsed)/1e6)
		case ok(r, "cache"):
			cached++
		case ok(r, "coalesced"):
			coalesced++
		}
		topk++
	}
	per := func(x int64, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(x) / float64(n)
	}
	m["sampling.samples_per_solve"] = metric{median(samples), "count"}
	m["sampling.samples_repaired"] = metric{per(after.SamplesRepaired-before.SamplesRepaired, patches), "1/patch"}
	m["server.overhead_ms"] = metric{median(overhead), "ms"}
	m["server.cache_p50_us"] = metric{1000 * median(rtts(recs, func(r record) bool { return r.Served == "cache" })), "us"}
	m["server.coalesced_p50_ms"] = metric{median(rtts(recs, func(r record) bool { return r.Served == "coalesced" })), "ms"}
	m["server.cold_p50_ms"] = metric{median(rtts(recs, func(r record) bool { return isSolve(r) && r.Class == classCold })), "ms"}
	m["server.warm_p50_ms"] = metric{median(rtts(recs, func(r record) bool { return isSolve(r) && r.Class != classCold })), "ms"}
	m["server.patch_p50_ms"] = metric{median(rtts(recs, func(r record) bool { return r.Class == classPatch })), "ms"}
	m["server.cache_hit_frac"] = metric{per(int64(cached), topk), "frac"}
	m["server.coalesced_frac"] = metric{per(int64(coalesced), topk), "frac"}
	m["server.registry_misses"] = metric{per(after.RegistryMisses-before.RegistryMisses, topk), "1/req"}
	m["server.warm_sets"] = metric{float64(warmSets), "count"}
	m["shard.epochs"] = metric{per(after.ShardEpochs-before.ShardEpochs, solves), "1/solve"}
	m["shard.bytes_merged"] = metric{per(after.ShardBytesMerged-before.ShardBytesMerged, solves), "B/solve"}
	m["shard.retries"] = metric{float64(after.ShardRetries - before.ShardRetries), "count"}

	base := median(rtts(recs, func(r record) bool { return isSolve(r) && !r.Traced }))
	overheadPct := 0.0
	if base > 0 {
		overheadPct = 100 * (median(rtts(recs, func(r record) bool { return isSolve(r) && r.Traced })) - base) / base
	}
	m["trace.overhead_pct"] = metric{overheadPct, "%"}
}
