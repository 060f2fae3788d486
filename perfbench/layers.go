package main

import (
	"fmt"
	"math"
	"net/http"

	"authteam/internal/expertgraph"
	"authteam/internal/server"
)

// layerMetrics assembles the traced run's per-layer metrics. A metric
// whose stage, counter or family the server does not expose (or that
// this workload does not exercise) is reported as 0 and listed in
// absent, never as an error, so layers can be removed without editing
// the benchmark.
type layerMetrics struct {
	out    map[string]metric
	absent []string
}

func (l *layerMetrics) put(name, unit string, v float64, ok bool) {
	if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
		l.absent = append(l.absent, name)
	}
	l.out[name] = metric{Value: v, Unit: unit}
}

func (l *layerMetrics) setup(inputS float64, st setupTimes) {
	l.put("setup.input_s", "s", inputS, true)
	l.put("setup.new_s", "s", median(st.newS), true)
	l.put("setup.warm_s", "s", median(st.warmS), true)
}

// spans derives the stage and self times of the traced discovers.
func (l *layerMetrics) spans(lt layerTimes, tailPct float64) {
	p50 := func(name, metricName string) {
		xs := lt.byName[name]
		l.put(metricName, "ms", median(xs), len(xs) > 0)
	}
	tail := func(name, metricName string) {
		xs := lt.byName[name]
		l.put(metricName, "ms", percentile(xs, tailPct), len(xs) > 0)
	}
	p50("search", "core.search_p50_ms")
	tail("search", "core.search_tail_ms")
	p50("merge", "core.merge_p50_ms")
	p50("index", "index.stage_p50_ms")
	tail("index", "index.stage_tail_ms")
	p50("fit", "transform.fit_p50_ms")
	tail("fit", "transform.fit_tail_ms")
	p50("score", "team.score_p50_ms")
	p50("server.handler", "server.handler_p50_ms")
	l.put("server.self_p50_ms", "ms", median(lt.handlerSelf), len(lt.handlerSelf) > 0)
	l.put("http.self_p50_ms", "ms", median(lt.httpSelf), len(lt.httpSelf) > 0)
	p50("resolve", "server.resolve_p50_ms")
	p50("cache", "server.cache_p50_ms")
}

// scrapes derives counts and histogram means from the /metrics deltas
// across the measured phase.
func (l *layerMetrics) scrapes(before, after exposition) {
	count := func(metricName, family string) (float64, bool) {
		v, ok := delta(before, after, family)
		l.put(metricName, "count", v, ok)
		return v, ok
	}
	meanMS := func(metricName, family string) {
		v, ok := histMean(before, after, family)
		l.put(metricName, "ms", v*1000, ok)
	}
	repairs, okR := count("index.repairs", "authteam_index_repairs_total")
	rebuilds, okB := count("index.rebuilds", "authteam_index_rebuilds_total")
	count("index.visit_trips", "authteam_index_repair_visit_trips_total")
	meanMS("index.repair_mean_ms", "authteam_index_repair_seconds")
	meanMS("index.rebuild_mean_ms", "authteam_index_rebuild_seconds")
	l.put("index.repair_ratio", "ratio", repairs/(repairs+rebuilds), okR && okB && repairs+rebuilds > 0)

	meanMS("live.apply_mean_ms", "authteam_live_apply_seconds")
	meanMS("live.commit_mean_ms", "authteam_live_commit_seconds")
	ops, ok := histMean(before, after, "authteam_live_commit_batch_ops")
	l.put("live.commit_batch_ops_mean", "count", ops, ok)
	meanMS("live.journal_append_mean_ms", "authteam_live_journal_append_seconds")
	meanMS("live.overlay_build_mean_ms", "authteam_live_overlay_build_seconds")
	count("live.overlay_refolds", "authteam_live_overlay_refolds_total")
	count("live.materializations", "authteam_live_materializations_total")
	depth, ok := after.sum("authteam_live_overlay_chain_depth", "authteam_live_overlay_chain_depth")
	l.put("live.chain_depth_end", "count", depth, ok)

	hits, okH := delta(before, after, "authteam_cache_hits_total")
	misses, okM := delta(before, after, "authteam_cache_misses_total")
	l.put("server.cache_hit_ratio", "ratio", hits/(hits+misses), okH && okM && hits+misses > 0)
}

// obsOverhead measures what the server's own instrumentation costs per
// request: two fresh servers over the same graph, one observing and
// one with NoObserve, both holding the pool in their caches, take
// interleaved requests (alternating which goes first). The result is
// the median paired difference as a percentage of the unobserved
// median.
func obsOverhead(g *expertgraph.Graph, pool []project, o options) (float64, error) {
	var ins [2]*instance
	for i, noObserve := range []bool{false, true} {
		srv, err := server.New(server.Config{Graph: g, NoObserve: noObserve})
		if err != nil {
			return 0, err
		}
		in, err := serve(srv, nil)
		if err != nil {
			_ = srv.Close()
			return 0, err
		}
		defer in.close()
		ins[i] = in
		for _, p := range pool {
			rep, err := in.do(http.MethodPost, "/v1/discover", p.body, nil)
			if err != nil {
				return 0, err
			}
			if rep.status != http.StatusOK {
				return 0, fmt.Errorf("pool answer: status %d", rep.status)
			}
		}
	}
	diffs := make([]float64, 0, o.obsPairs)
	plain := make([]float64, 0, o.obsPairs)
	for j := 0; j < o.obsPairs; j++ {
		body := pool[j%len(pool)].body
		var lat [2]float64
		for k := 0; k < 2; k++ {
			i := (j + k) % 2
			rep, err := ins[i].do(http.MethodPost, "/v1/discover", body, nil)
			if err != nil {
				return 0, err
			}
			if rep.status != http.StatusOK {
				return 0, fmt.Errorf("status %d", rep.status)
			}
			lat[i] = rep.ms()
		}
		diffs = append(diffs, lat[0]-lat[1])
		plain = append(plain, lat[1])
	}
	return median(diffs) / median(plain) * 100, nil
}
