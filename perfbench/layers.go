package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"time"
)

// layers runs the traced pass's in-process work — the replay of a fixed
// set of the workload's sweeps and a read probe of its stores — and
// reports every per-layer metric, each layer's self time, the tracing
// overhead and, for sharded sweeps, where sweep latency went.
func (b *bench) layers(res *result, timed, baseline *window, runs []*sweepRun, before, after []scrape) error {
	set := func(name string, v float64, unit string, n int) {
		res.Metrics[name] = metric{v, unit}
		report(name, v, unit, n)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no completed sweeps to attribute")
	}
	n := float64(len(runs))

	// cmd/iobfleetd, from the client's spans and /metrics deltas.
	var submit, first []float64
	var merged float64
	for _, r := range runs {
		submit = append(submit, r.submitRTT.Seconds())
		first = append(first, r.firstRecord.Seconds())
		merged += float64(r.storeSize)
	}
	coord := delta(before[0], after[0])
	var back []scrape
	for i := 1; i < len(before); i++ {
		back = append(back, delta(before[i], after[i]))
	}
	backendMean := 0.0
	if c := sum(back, "iobfleetd_sweep_duration_seconds_count"); c > 0 {
		backendMean = sum(back, "iobfleetd_sweep_duration_seconds_sum") / c
	}
	coordMean := histMean(coord, "iobfleetd_sweep_duration_seconds")
	replicated := coord["iobfleetd_shard_fetch_bytes_total"]
	shardsNeeded := 0
	for _, r := range runs {
		shardsNeeded += r.spec.Shards
	}
	set("iobfleetd.submit_p50_s", median(submit), "s", len(runs))
	set("iobfleetd.first_record_p50_s", median(first), "s", len(runs))
	set("iobfleetd.coord_overhead_s", coordMean-backendMean, "s", len(runs))
	set("iobfleetd.replicated_bytes_per_sweep", replicated/n, "bytes", len(runs))
	set("iobfleetd.replication_ratio", replicated/merged, "ratio", len(runs))
	set("iobfleetd.dispatch_useful_ratio", float64(shardsNeeded)/coord["iobfleetd_shards_dispatched_total"], "ratio", len(runs))
	set("iobfleetd.shard_retries", coord["iobfleetd_shard_retries_total"], "count", len(runs))
	set("iobfleetd.shards_stolen", coord["iobfleetd_shards_stolen_total"], "count", len(runs))
	set("iobfleetd.coord_alloc_bytes_per_sweep", coord["go_total_alloc_bytes"]/n, "bytes", len(runs))
	set("iobfleetd.backend_alloc_bytes_per_sweep", sum(back, "go_total_alloc_bytes")/n, "bytes", len(runs))

	// The replay: a fixed set of sweeps, re-run in-process layer by layer.
	replays := runs
	if b.w.stores == 0 {
		replays = nil
		for _, r := range runs {
			if r.index%b.w.clients == 0 && r.index/b.w.clients < b.w.replays {
				replays = append(replays, r)
			}
		}
		sort.Slice(replays, func(i, j int) bool { return replays[i].index < replays[j].index })
	}
	if len(replays) == 0 {
		return fmt.Errorf("the window completed none of the sweeps the replay re-runs")
	}
	var rr replayResult
	var gathers []float64
	for _, r := range replays {
		got, err := replay(b.tr, b.dir, r)
		if err != nil {
			return err
		}
		gathers = append(gathers, got.gather.Seconds())
		rr.wearers += got.wearers
		rr.events += got.events
		rr.commits += got.commits
		rr.mergedBytes += got.mergedBytes
		rr.rounds += got.rounds
		rr.cells += got.cells
		rr.windowPeak = max(rr.windowPeak, got.windowPeak)
	}
	m := float64(len(replays))

	// The read probe: the workload's stores (at most three).
	var stores []*storeFile
	if b.w.stores > 0 {
		stores = b.stores
	} else {
		for _, r := range replays[:min(3, len(replays))] {
			s, err := loadStore(r.id, filepath.Join(b.fleet.coord.data, r.id+".wtl"))
			if err != nil {
				return err
			}
			stores = append(stores, s)
		}
	}
	scanned, err := readProbe(b.tr, rand.New(rand.NewPCG(uint64(b.seed), 7)), stores)
	if err != nil {
		return err
	}

	// Self time summed per span name.
	spans := b.tr.snapshot()
	self := selfTimes(spans)
	totals := map[string]time.Duration{}
	counts := map[string]int{}
	for _, s := range spans {
		totals[s.Name] += self[s.ID]
		counts[s.Name]++
	}
	streamSelf := totals["fleet.Stream"].Seconds()
	solve := sumSeconds(spanDurations(spans, "spectrum.Equilibrium.Solve"))
	merge := sumSeconds(spanDurations(spans, "telemetry.MergeShards"))

	set("fleet.gather_s", mean(gathers), "s", len(replays))
	set("fleet.stream_self_s", streamSelf/m, "s", len(replays))
	set("fleet.window_peak", float64(rr.windowPeak), "count", len(replays))
	set("bannet.events_per_wearer", float64(rr.events)/float64(rr.wearers), "count", len(replays))
	set("desim.events_per_host_s", float64(rr.events)/streamSelf, "1/s", len(replays))
	set("spectrum.solve_s", solve/m, "s", len(replays))
	rounds := 0.0
	if rr.cells > 0 {
		rounds = float64(rr.rounds) / float64(rr.cells)
	}
	set("spectrum.rounds_per_cell", rounds, "count", len(replays))
	set("telemetry.consume_s", sumSeconds(spanDurations(spans, "telemetry.Writer.Consume"))/m, "s", len(replays))
	set("telemetry.commits_per_sweep", float64(rr.commits)/m, "count", len(replays))
	set("telemetry.bytes_per_wearer", float64(rr.mergedBytes)/float64(rr.wearers), "bytes", len(replays))
	set("telemetry.merge_s", merge/m, "s", len(replays))
	set("telemetry.merge_mb_per_s", float64(rr.mergedBytes)/1e6/merge, "MB/s", len(replays))
	scan := sumSeconds(spanDurations(spans, "telemetry.scan"))
	opens := spanDurations(spans, "telemetry.Open")
	set("telemetry.open_s", median(opens), "s", len(opens))
	set("telemetry.scan_records_per_s", float64(scanned)/scan, "1/s", len(opens))
	for _, kind := range queryKinds {
		qs := spanDurations(spans, "telemetry.QueryStore."+kind)
		set("telemetry.query_"+kind+"_s", median(qs), "s", len(qs))
	}

	names := make([]string, 0, len(totals))
	for k := range totals {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("self %-36s %12.6f s  spans=%d\n", k, totals[k].Seconds(), counts[k])
	}
	tp50, up50 := median(timed.latencies()), median(baseline.latencies())
	fmt.Printf("trace_overhead op_p50_s traced=%.6f untraced=%.6f diff=%+.6f s; ops_per_s traced=%.4f untraced=%.4f\n",
		tp50, up50, tp50-up50, windowRate(timed), windowRate(baseline))

	if b.w.spec != nil {
		// Where a sharded sweep's time went: backend shard runs, then the
		// coordinator's own phases, the rest of its overhead, and the
		// client-side gap (submit, queueing, progress delivery).
		gather, remaining := mean(gathers), coordMean-backendMean-mean(gathers)-solve/m-merge/m
		fmt.Printf("accounting sweep_p50_s=%.4f = backend_shard_s %.4f + fleet.gather_s %.4f + spectrum.solve_s %.4f + telemetry.merge_s %.4f + remaining_coord_overhead_s %.4f + client_gap_s %.4f\n",
			tp50, backendMean, gather, solve/m, merge/m, remaining, tp50-coordMean)
	}
	return nil
}

// windowRate is a window's completed operations per second.
func windowRate(w *window) float64 {
	n := 0
	for _, o := range w.ops {
		if o.err == nil {
			n++
		}
	}
	return float64(n) / w.elapsed.Seconds()
}

// spanDurations collects the durations, in seconds, of spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Name == name {
			out = append(out, spans[i].dur().Seconds())
		}
	}
	return out
}

func sumSeconds(xs []float64) float64 { return mean(xs) * float64(len(xs)) }
