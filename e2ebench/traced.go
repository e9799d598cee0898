package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// tracedRun measures the per-layer metrics. It runs the request sequence
// untraced on a fresh daemon, then again with benchmark spans and trace
// reads on another fresh daemon (the latency ratio of the two is the
// tracing overhead), checks every answer, and probes the layers.
func tracedRun(opt options) (*report, error) {
	ctx := context.Background()
	dur := time.Duration(opt.seconds) * time.Second
	s, err := setup(ctx, opt, nil)
	if err != nil {
		return nil, err
	}
	base, err := runPhase(ctx, s, dur, nil)
	s.d.stop()
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	s2, err := setup(ctx, opt, s.w)
	if err != nil {
		return nil, err
	}
	ph, err := runPhase(ctx, s2, dur, rec)
	s2.d.stop()
	if err != nil {
		return nil, err
	}

	ck := checked{attempted: 2} // the two warm-up requests
	ck.phase(base)
	ck.phase(ph)
	checker := newChecker()
	ck.verify(checker, []*outcome{s.warmup, s2.warmup}, rec)
	ck.verify(checker, base.outs, rec)
	ck.verify(checker, ph.outs, rec)
	ck.crossChecked(ctx, opt, ph.outs, rec)
	logErrors(ck.errs)
	logCounters(ph)

	layers, err := traceLayers(ph.outs)
	if err != nil {
		return nil, err
	}
	delta := ph.counter
	layers["server.cache_hit_ratio"] = ratio(delta("mdbgpd_cache_hits_total"),
		delta("mdbgpd_cache_hits_total")+delta("mdbgpd_cache_misses_total"))
	layers["server.cache_evictions"] = delta("mdbgpd_cache_evictions_total")
	layers["server.graph_cache_evictions"] = delta("mdbgpd_graph_cache_evictions_total")
	layers["server.delta_warm_ratio"] = ratio(delta("mdbgpd_delta_warm_total"), delta("mdbgpd_delta_submitted_total"))
	layers["prep.hit_ratio"] = ratio(delta("mdbgpd_prep_cache_hits_total"),
		delta("mdbgpd_prep_cache_hits_total")+delta("mdbgpd_prep_cache_misses_total"))
	rejected, resubmits := 0, 0
	var lat, baseLat []float64
	for _, o := range ph.outs {
		rejected += o.rejected
		if o.resubmit {
			resubmits++
		}
		lat = append(lat, o.latency.Seconds()*1e3)
	}
	for _, o := range base.outs {
		baseLat = append(baseLat, o.latency.Seconds()*1e3)
	}
	layers["server.rejected"] = float64(rejected)
	layers["server.base_resubmits"] = float64(resubmits)
	layers["bench.trace_overhead_frac"] = median(lat)/median(baseLat) - 1
	logf("trace overhead: latency p50 %.3f ms traced (%d requests) vs %.3f ms untraced (%d requests)",
		median(lat), len(lat), median(baseLat), len(baseLat))

	probes, err := probeLayers(s.w, s.warmup, rand.New(rand.NewSource(mix(opt.seed, 9))), rec)
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		layers[k] = v
	}
	path := spanPath(opt)
	if err := rec.write(path); err != nil {
		return nil, err
	}
	logf("spans written to %s", path)

	rep := &report{Correct: ck.failed == 0, Attempted: ck.attempted, Failed: ck.failed, Metrics: make(map[string]metric)}
	for _, pm := range perLayer {
		v, ok := layers[pm.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", pm.name)
		}
		rep.Metrics[pm.name] = metric{v, pm.unit}
		logf("  %-28s %14.4f %-8s should move %s", pm.name, v, pm.unit, pm.moves)
	}
	return rep, nil
}

// layerMetric names one per-layer metric, and the end-to-end metric and
// workload a change to its layer should move.
type layerMetric struct {
	name, unit, better, moves string
}

// perLayer is every metric a traced run prints. BENCHMARK.json lists the
// same names, units and directions.
var perLayer = []layerMetric{
	{"server.ingest_ms", "ms", "lower", "latency_p50_ms on serve-mix (most of a hit); about 15% of it on gd-cold"},
	{"server.cache_lookup_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"server.queue_wait_ms", "ms", "lower", "latency_p99_ms on serve-mix"},
	{"server.queue_wait_max_ms", "ms", "lower", "latency_p99_ms on serve-mix"},
	{"server.solve_self_ms", "ms", "lower", "latency_p50_ms on ml-repartition"},
	{"server.unattributed_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"server.response_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"server.cache_hit_ratio", "fraction", "higher", "throughput_rps on serve-mix"},
	{"server.cache_evictions", "count", "lower", "throughput_rps on serve-mix"},
	{"server.graph_cache_evictions", "count", "lower", "throughput_rps on serve-mix"},
	{"server.delta_warm_ratio", "fraction", "higher", "latency_p50_ms and locality on serve-mix"},
	{"server.rejected", "count", "lower", "latency_p99_ms on serve-mix (expected 0)"},
	{"server.base_resubmits", "count", "lower", "latency_p99_ms on serve-mix"},
	{"prep.ms", "ms", "lower", "latency_p50_ms on ml-repartition"},
	{"prep.hit_ratio", "fraction", "higher", "latency_p50_ms on ml-repartition (two thirds by design)"},
	{"core.gd_ms", "ms", "lower", "latency_p50_ms and medges_per_s on gd-cold"},
	{"core.gd_runs", "count", "lower", "cpu_ms_per_op on gd-cold"},
	{"core.gd_iters", "count", "lower", "medges_per_s on gd-cold"},
	{"core.fixed_frac", "fraction", "higher", "medges_per_s on gd-cold"},
	{"core.round_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"core.repair_moves", "count", "lower", "balanced_frac on serve-mix"},
	{"core.bisect_self_ms", "ms", "lower", "latency_p50_ms on gd-cold"},
	{"coarsen.ms", "ms", "lower", "latency_p50_ms on ml-repartition"},
	{"coarsen.levels", "count", "lower", "latency_p50_ms on ml-repartition"},
	{"multilevel.coarse_solve_ms", "ms", "lower", "latency_p50_ms on ml-repartition"},
	{"multilevel.refine_ms", "ms", "lower", "latency_p50_ms on ml-repartition"},
	{"vecmath.spmv_gbps", "GB/s", "higher", "medges_per_s on gd-cold"},
	{"vecmath.stream_gbps", "GB/s", "higher", "none: the machine's reference ceiling"},
	{"vecmath.spmv_ceiling_frac", "fraction", "higher", "medges_per_s on gd-cold"},
	{"project.ns_per_coord", "ns", "lower", "latency_p50_ms on gd-cold (2 dims) and ml-repartition (3 dims)"},
	{"wire.decode_mb_per_s", "MB/s", "higher", "server.ingest_ms on gd-cold and ml-repartition"},
	{"graph.parse_mb_per_s", "MB/s", "higher", "server.ingest_ms on serve-mix"},
	{"graph.hash_ms", "ms", "lower", "server.ingest_ms on all workloads"},
	{"graph.validate_ms", "ms", "lower", "server.ingest_ms on gd-cold"},
	{"graph.apply_delta_ms", "ms", "lower", "latency_p50_ms on serve-mix"},
	{"weights.standard_ms", "ms", "lower", "server.solve_self_ms on ml-repartition (PageRank)"},
	{"partition.score_ms", "ms", "lower", "server.solve_self_ms on all workloads"},
	{"bench.trace_overhead_frac", "fraction", "lower", "none: the cost of tracing this benchmark"},
}
