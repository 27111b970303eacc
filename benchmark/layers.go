package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"ebrrq/internal/obs"
)

// setLayer fills the set.* metrics from the harness's own timing of every
// call into Thread / ShardedThread during the traced pass.
func setLayer(res *passResult, a *totals, updLat, rqLat []float64) {
	p50 := func(class int) float64 {
		return median(toFloats(a.lat[class]))
	}
	res.Layer["set.insert_p50_ns"] = p50(opInsert)
	res.Layer["set.delete_p50_ns"] = p50(opDelete)
	res.Layer["set.contains_p50_ns"] = p50(opContains)
	res.Layer["set.rq_p50_us"] = median(rqLat) / 1e3

	conLat := toFloats(a.lat[opContains])
	sort.Float64s(conLat)
	for _, t := range []struct {
		name  string
		lat   []float64
		scale float64
	}{
		{"set.update_tail_ns", updLat, 1},
		{"set.contains_tail_ns", conLat, 1},
		{"set.rq_tail_us", rqLat, 1e3},
	} {
		p, v := tail(t.lat)
		res.Layer[t.name] = v / t.scale
		if len(t.lat) > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s is p%.4f of %d samples", t.name, p, len(t.lat)))
		}
	}

	var busy float64
	for _, b := range a.busy {
		busy += float64(b)
	}
	res.Layer["set.update_time_share"] = ratio(float64(a.busy[opInsert]+a.busy[opDelete]), busy)
	res.Layer["set.contains_time_share"] = ratio(float64(a.busy[opContains]), busy)
	res.Layer["set.rq_time_share"] = ratio(float64(a.busy[opRQ]), busy)
	res.Layer["set.rq_keys_per_rq"] = ratio(float64(a.rqKeys), float64(a.counts[opRQ]))
	res.Layer["set.update_success_ratio"] = ratio(float64(a.succeeded), float64(a.counts[opInsert]+a.counts[opDelete]))
}

// obsLayer fills the metrics that come from the library's own counters:
// snap is the obs.Registry delta over the measured window.
func obsLayer(res *passResult, snap obs.Snapshot, a *totals, seconds float64) {
	c := func(name string) float64 { return float64(snap.Counter(name)) }
	updates := float64(a.counts[opInsert] + a.counts[opDelete])

	single, cross := c("ebrrq_rq_single_shard_total"), c("ebrrq_rq_cross_shard_total")
	res.Layer["sharded.cross_shard_ratio"] = ratio(cross, single+cross)
	var fanout float64
	if h, ok := snap.Hist("ebrrq_rq_fanout_shards"); ok {
		fanout = float64(h.Sum)
	}
	res.Layer["sharded.fanout_mean"] = ratio(single+fanout, single+cross)

	tsWait, traverse := c("ebrrq_rq_ts_wait_ns_total"), c("ebrrq_rq_traverse_ns_total")
	announce, limbo := c("ebrrq_rq_announce_ns_total"), c("ebrrq_rq_limbo_ns_total")
	phases := tsWait + traverse + announce + limbo
	res.Layer["rqprov.rq_ts_wait_share"] = ratio(tsWait, phases)
	res.Layer["rqprov.rq_traverse_share"] = ratio(traverse, phases)
	res.Layer["rqprov.rq_announce_share"] = ratio(announce, phases)
	res.Layer["rqprov.rq_limbo_share"] = ratio(limbo, phases)

	rqs := c("ebrrq_rq_total")
	res.Layer["rqprov.limbo_visited_per_rq"] = ratio(c("ebrrq_limbo_visited_total"), rqs)
	res.Layer["rqprov.announce_scans_per_rq"] = ratio(c("ebrrq_announce_scans_total"), rqs)
	skipped, swept := c("ebrrq_rq_bags_skipped"), c("ebrrq_rq_bags_swept")
	res.Layer["rqprov.bags_skipped_ratio"] = ratio(skipped, skipped+swept)
	shared, advanced := c("ebrrq_rq_ts_shared"), c("ebrrq_rq_ts_advanced")
	res.Layer["rqprov.ts_shared_ratio"] = ratio(shared, shared+advanced)
	res.Layer["rqprov.fence_shared_ratio"] = ratio(c("ebrrq_rq_fence_shared"), advanced)
	res.Layer["rqprov.await_spins_per_rq"] = ratio(c("ebrrq_await_itime_spins_total")+c("ebrrq_await_dtime_spins_total"), rqs)
	res.Layer["rqprov.dcss_retries_per_update"] = ratio(c("ebrrq_dcss_retries_total"), updates)
	res.Layer["rqprov.htm_aborts_per_update"] = ratio(c("ebrrq_htm_aborts_total"), updates)
	hits, misses := c("ebrrq_pool_hits_total"), c("ebrrq_pool_misses_total")
	res.Layer["rqprov.pool_hit_ratio"] = ratio(hits, hits+misses)

	retires := c("ebrrq_epoch_retires_total")
	res.Layer["epoch.retires_per_update"] = ratio(retires, updates)
	res.Layer["epoch.reclaimed_per_retire"] = ratio(c("ebrrq_epoch_reclaimed_total"), retires)
	res.Layer["epoch.advances_per_s"] = ratio(c("ebrrq_epoch_advances_total"), seconds)
	res.Layer["epoch.rotations_per_s"] = ratio(c("ebrrq_epoch_rotations_total"), seconds)

	entries := c("ebrrq_bundle_entries_total")
	res.Layer["bundle.entries_per_update"] = ratio(entries, updates)
	res.Layer["bundle.pruned_per_entry"] = ratio(c("ebrrq_bundle_pruned_total"), entries)
	res.Layer["bundle.gc_passes_per_s"] = ratio(c("ebrrq_bundle_gc_total"), seconds)
	res.Layer["bundle.pending_waits_per_rq"] = ratio(c("ebrrq_bundle_pending_waits_total"), c("ebrrq_bundle_rq_total"))
	res.Layer["bundle.entries_live"] = float64(snap.Gauge("ebrrq_bundle_entries_live"))
}

// writeSpans stores the traced pass's spans as
// benchmark/out/<workload>.spans.json: one [worker, class, start_ns, end_ns] row
// per span, times relative to the start of the measured window.
func writeSpans(cfg passConfig, workers []*worker, origin int64) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, cfg.workload.name+".spans.json"))
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close below
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(bw, `{"workload":%q,"seed":%d,"time_unit":"ns since the measured window began",`+
		`"classes":["insert","delete","contains","rq"],"point_op_sampling":%d,`+"\n"+
		`"columns":["worker","class","start","end"],"spans":[`+"\n",
		cfg.workload.name, cfg.seed, spanSampleEvery)
	first := true
	for _, wk := range workers {
		for _, sp := range wk.spans.buf {
			if !first {
				bw.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(bw, "[%d,%d,%d,%d]", wk.id, sp.class, sp.start-origin, sp.end-origin)
		}
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
