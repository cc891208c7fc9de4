package main

// metric is one declared benchmark metric. layer metrics are reported
// by the traced run, the others by the untraced run. only lists the
// workloads that load the metric's layer; on the others the layer does
// no work and the metric reads 0. moves names the end-to-end metric and
// workload a change to this layer should move.
type metric struct {
	name, unit, better string
	layer              bool
	only               []string
	moves              string
}

const fleetOnly = "fleet_sweep"

// metricTable is the benchmark's declared metric set, in report order.
// BENCHMARK.json lists the same names and units (the self-test checks
// that it does).
var metricTable = []metric{
	// End to end: host time unless named otherwise.
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "wall_s", unit: "s", better: "lower"},
	{name: "cells_per_s", unit: "1/s", better: "higher"},
	{name: "cell_s_p50", unit: "s", better: "lower"},
	{name: "cell_s_tail", unit: "s", better: "lower"},
	{name: "sim_minstr_per_s", unit: "Minstr/s", better: "higher"},
	{name: "peak_heap_mb", unit: "MB", better: "lower"},

	// core: direct timings of the cell's phases.
	{name: "core.setup_ms", unit: "ms", better: "lower", layer: true, moves: "setup_s on every workload; cells_per_s on fleet_sweep; barely bulk_64k"},
	{name: "core.warmup_s", unit: "s", better: "lower", layer: true, moves: "wall_s on bulk_64k and fleet_sweep (churn_10k has no warm-up phase)"},
	{name: "core.measure_s", unit: "s", better: "lower", layer: true, moves: "wall_s and sim_minstr_per_s on bulk_64k and churn_10k"},
	{name: "core.shutdown_ms", unit: "ms", better: "lower", layer: true, moves: "wall_s on churn_10k (most coroutines to kill)"},
	{name: "core.export_ms", unit: "ms", better: "lower", layer: true, only: []string{"bulk_64k", "churn_10k"}, moves: "wall_s on bulk_64k (fleet_sweep exports inside serve: see serve.handler_ms_*)"},
	{name: "core.self_share", unit: "share", better: "lower", layer: true, moves: "setup_s everywhere"},

	// sim: event engine and coroutines.
	{name: "sim.events_fired", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "sim.events_cancelled", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "sim.band_share", unit: "share", better: "higher", layer: true, moves: "simulated; pinned by the digest"},
	{name: "sim.peak_pending", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "sim.host_ns_per_event", unit: "ns", better: "lower", layer: true, moves: "sim_minstr_per_s and wall_s on churn_10k and bulk_64k; nothing on warm fleet_sweep"},
	{name: "sim.coro_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s and wall_s on churn_10k and bulk_64k"},
	{name: "sim.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k and bulk_64k"},

	// mem: cache hierarchy, coherence directory, TLB.
	{name: "mem.self_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s most on bulk_64k, less on churn_10k"},
	{name: "mem.access_range_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s on bulk_64k"},
	{name: "mem.directory_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s on bulk_64k"},
	{name: "mem.llc_misses", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "mem.dtlb_walks", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},

	// cpu: the Exec cost model.
	{name: "cpu.self_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s on bulk_64k and churn_10k"},
	{name: "cpu.begin_share", unit: "share", better: "lower", layer: true, moves: "sim_minstr_per_s on bulk_64k and churn_10k"},
	{name: "cpu.instructions", unit: "count", better: "higher", layer: true, moves: "simulated; pinned by the digest"},
	{name: "cpu.cpi", unit: "cycles/instr", better: "lower", layer: true, moves: "simulated; pinned by the digest"},

	// kern, apic, tcp, netdev.
	{name: "kern.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k and bulk_64k"},
	{name: "kern.machine_clears", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "kern.spin_cycles", unit: "cycles", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "apic.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on bulk_64k (IPI-heavy none mode)"},
	{name: "apic.irqs", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "apic.ipis", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "tcp.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k (per-connection work)"},
	{name: "tcp.transactions", unit: "count", better: "higher", layer: true, moves: "simulated; pinned by the digest"},
	{name: "tcp.retransmits", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "netdev.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k and bulk_64k"},
	{name: "netdev.drops", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},

	// workload and stats: generator and latency sketch.
	{name: "workload.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k"},
	{name: "stats.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k"},
	{name: "workload.conns_generated", unit: "count", better: "higher", layer: true, moves: "simulated; pinned by the digest"},
	{name: "workload.syn_drops", unit: "count", better: "lower", layer: true, moves: "simulated; pinned by the digest"},
	{name: "workload.latency_p99_cycles", unit: "cycles", better: "lower", layer: true, only: []string{"churn_10k"}, moves: "simulated; pinned by the digest"},

	// Go runtime.
	{name: "go.allocs_per_kevent", unit: "allocs/kevent", better: "lower", layer: true, moves: "peak_heap_mb and wall_s on churn_10k first"},
	{name: "go.allocs_per_cell", unit: "count", better: "lower", layer: true, moves: "peak_heap_mb and wall_s on churn_10k first"},
	{name: "go.alloc_mb_per_cell", unit: "MB", better: "lower", layer: true, moves: "peak_heap_mb on churn_10k"},
	{name: "go.alloc_samples", unit: "count", better: "higher", layer: true, moves: "sample count behind the two readings above"},
	{name: "go.gc_per_cell", unit: "count", better: "lower", layer: true, moves: "wall_s on churn_10k"},
	{name: "go.malloc_share", unit: "share", better: "lower", layer: true, moves: "wall_s on churn_10k"},
	{name: "go.gc_share", unit: "share", better: "lower", layer: true, moves: "wall_s and peak_heap_mb on churn_10k"},
	{name: "go.self_share", unit: "share", better: "lower", layer: true, moves: "wall_s everywhere (runtime self time, coroutine handoff included)"},

	// serve: worker HTTP handler and the simulation beneath its cache.
	{name: "serve.handler_ms_p50", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "serve.handler_ms_tail", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "serve.sim_ms_p50", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "serve.sim_ms_tail", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "serve.sims", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "serve.self_share", unit: "share", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},

	// cache: the workers' result caches.
	{name: "cache.hits", unit: "count", better: "higher", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "cache.sims", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "cache.coalesced", unit: "count", better: "higher", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "cache.hit_ratio", unit: "share", better: "higher", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "cache.self_share", unit: "share", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},

	// coord: dispatch, memo, journal.
	{name: "coord.dispatch_rtt_ms_p50", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.dispatch_rtt_ms_tail", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.wait_ms_p50", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.dispatched", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.retried", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.hedged", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.deduped", unit: "count", better: "higher", layer: true, only: []string{fleetOnly}, moves: "wall_s on fleet_sweep (memo hits)"},
	{name: "coord.resume_hits", unit: "count", better: "higher", layer: true, only: []string{fleetOnly}, moves: "wall_s on fleet_sweep (warm replays: the journal index is read before the memo)"},
	{name: "coord.journal_appends", unit: "count", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.journal_wal_bytes", unit: "bytes", better: "lower", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.dispatch_efficiency", unit: "cells/dispatch", better: "higher", layer: true, only: []string{fleetOnly}, moves: "cells_per_s on fleet_sweep"},
	{name: "coord.warm_sweep_ms_p50", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "wall_s on fleet_sweep"},
	{name: "coord.warm_sweep_ms_tail", unit: "ms", better: "lower", layer: true, only: []string{fleetOnly}, moves: "wall_s on fleet_sweep"},
	{name: "coord.self_share", unit: "share", better: "lower", layer: true, only: []string{fleetOnly}, moves: "wall_s on fleet_sweep"},

	// The benchmark itself.
	{name: "error_rate", unit: "share", better: "lower", layer: true, moves: "gate: share of outputs that failed the correctness check"},
	{name: "trace.overhead", unit: "share", better: "lower", layer: true, moves: "traced round wall against untraced round wall, minus one"},
}

// endToEndMetrics computes the untraced run's metrics.
func endToEndMetrics(a *acc, peakHeapBytes float64) map[string]float64 {
	return map[string]float64{
		"setup_s":          quantile(a.setup, 0.5),
		"wall_s":           quantile(a.wall, 0.5),
		"cells_per_s":      ratio(float64(a.cells), a.cellTime),
		"cell_s_p50":       quantile(a.cellS, 0.5),
		"cell_s_tail":      tail("cell_s_tail", a.cellS),
		"sim_minstr_per_s": ratio(a.pmu["instructions"]/1e6, a.measureS),
		"peak_heap_mb":     peakHeapBytes / 1e6,
	}
}

// layerMetrics computes the traced run's metrics from the traced rounds
// (t), with the untraced rounds (p) as the overhead baseline.
func layerMetrics(t, p *acc, out *output) map[string]float64 {
	n := float64(t.results)
	perResult := func(x float64) float64 { return ratio(x, n) }
	v := map[string]float64{
		"core.setup_ms":    quantile(t.setupMs, 0.5),
		"core.warmup_s":    quantile(t.warmupS, 0.5),
		"core.measure_s":   quantile(t.measureSs, 0.5),
		"core.shutdown_ms": quantile(t.shutdownMs, 0.5),
		"core.export_ms":   quantile(t.exportMs, 0.5),

		"sim.events_fired":      perResult(t.fired),
		"sim.events_cancelled":  perResult(t.cancelled),
		"sim.band_share":        ratio(t.band, t.scheduled),
		"sim.peak_pending":      quantile(t.peakPending, 1),
		"sim.host_ns_per_event": ratio(t.simHostS*1e9, t.fired),

		"mem.llc_misses":   perResult(t.pmu["llc_misses"]),
		"mem.dtlb_walks":   perResult(t.pmu["dtlb_walks"]),
		"cpu.instructions": perResult(t.pmu["instructions"]),
		"cpu.cpi":          ratio(t.pmu["cycles"], t.pmu["instructions"]),

		"kern.machine_clears":         perResult(t.pmu["machine_clears"]),
		"kern.spin_cycles":            perResult(t.pmu["spin_cycles"]),
		"apic.irqs":                   perResult(t.pmu["irqs"]),
		"apic.ipis":                   perResult(t.pmu["ipis"]),
		"tcp.transactions":            perResult(t.pmu["transactions"]),
		"tcp.retransmits":             perResult(t.pmu["retransmits"]),
		"netdev.drops":                perResult(t.pmu["drops"]),
		"workload.conns_generated":    perResult(t.pmu["conns_generated"]),
		"workload.syn_drops":          perResult(t.pmu["syn_drops"]),
		"workload.latency_p99_cycles": quantile(t.latP99, 0.5),

		"go.allocs_per_kevent": ratio(t.allocObjs, t.allocKevents),
		"go.allocs_per_cell":   quantile(t.allocs, 0.5),
		"go.alloc_mb_per_cell": quantile(t.allocMB, 0.5),
		"go.alloc_samples":     float64(len(t.allocs)),
		"go.gc_per_cell":       ratio(t.gcCycles, t.allocCells),

		"serve.handler_ms_p50":  quantile(t.handlerMs, 0.5),
		"serve.handler_ms_tail": tail("serve.handler_ms_tail", t.handlerMs),
		"serve.sim_ms_p50":      quantile(t.simMs, 0.5),
		"serve.sim_ms_tail":     tail("serve.sim_ms_tail", t.simMs),

		"coord.dispatch_rtt_ms_p50":  quantile(t.rttMs, 0.5),
		"coord.dispatch_rtt_ms_tail": tail("coord.dispatch_rtt_ms_tail", t.rttMs),
		"coord.wait_ms_p50":          quantile(t.waitMs, 0.5),
		"coord.warm_sweep_ms_p50":    quantile(t.warmMs, 0.5),
		"coord.warm_sweep_ms_tail":   tail("coord.warm_sweep_ms_tail", t.warmMs),
		"coord.dispatch_efficiency": ratio(float64(t.cells),
			t.counters["coord.dispatched"]+t.counters["coord.retried"]+t.counters["coord.hedged"]),

		"error_rate":     ratio(float64(out.Failed), float64(out.Attempted)),
		"trace.overhead": ratio(quantile(t.roundTotal, 0.5), quantile(p.roundTotal, 0.5)) - 1,
	}
	// Counters are per traced round.
	for k, x := range t.counters {
		v[k] = x / float64(len(t.roundTotal))
	}
	v["cache.hit_ratio"] = ratio(t.counters["cache.hits"]+t.counters["cache.coalesced"],
		t.counters["cache.hits"]+t.counters["cache.coalesced"]+t.counters["cache.misses"])
	for k, x := range t.prof.shares() {
		v[k] = x
	}
	return v
}

// zeroUnloaded sets the metrics of layers the workload does not load to
// 0: the layer did no work and spent no time.
func zeroUnloaded(workload string, v map[string]float64) {
	for _, m := range metricTable {
		if len(m.only) == 0 {
			continue
		}
		loaded := false
		for _, w := range m.only {
			loaded = loaded || w == workload
		}
		if !loaded {
			v[m.name] = 0
		}
	}
}
