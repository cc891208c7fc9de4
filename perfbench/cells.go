package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/ttcp"
)

// openLoopHorizon is the run-to-completion window core.Run gives an
// open-loop cell.
const openLoopHorizon = uint64(1) << 61

// phases are the host times of one cell's core phases.
type phases struct {
	setup, warmup, measure, shutdown time.Duration
}

// simulate runs one cell the way core.Run does — NewMachine, Eng.Run
// over the warm-up, Measure, Shutdown — timing each phase and, in a
// traced round, recording it as a span under parent. check, when set,
// runs on the machine between Measure and Shutdown, untimed (the gate's
// invariant pass). stop, when set, arms the engine with it the way
// core.RunControlled arms a serve worker's cells, so the engine polls it
// as it does in deployment; a run it interrupts is marked aborted.
func simulate(cfg core.Config, tr *tracer, parent uint64, check func(*core.Machine), stop *atomic.Bool) (*core.Result, phases) {
	var p phases
	sp := tr.start("core.setup", parent)
	t := time.Now()
	m := core.NewMachine(cfg)
	if stop != nil {
		m.Eng.SetInterrupt(stop, sim.Forever)
	}
	p.setup = time.Since(t)
	sp.end()

	var r *core.Result
	if m.WL.OpenLoop() {
		sp = tr.start("core.measure", parent)
		t = time.Now()
		r = m.Measure(openLoopHorizon)
		p.measure = time.Since(t)
		sp.end()
	} else {
		sp = tr.start("core.warmup", parent)
		t = time.Now()
		m.Eng.Run(sim.Time(cfg.WarmupCycles))
		p.warmup = time.Since(t)
		sp.end()
		sp = tr.start("core.measure", parent)
		t = time.Now()
		r = m.Measure(cfg.MeasureCycles)
		p.measure = time.Since(t)
		sp.end()
	}
	if m.Eng.Interrupted() {
		r.Aborted, r.AbortReason = true, core.AbortCancelled
	} else if check != nil {
		check(m)
	}
	sp = tr.start("core.shutdown", parent)
	t = time.Now()
	m.Shutdown()
	p.shutdown = time.Since(t)
	sp.end()
	return r, p
}

// addResult records one cell's phases and simulated statistics.
func (a *acc) addResult(r *core.Result, p phases) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.results++
	a.setupMs = append(a.setupMs, ms(p.setup))
	a.warmupS = append(a.warmupS, p.warmup.Seconds())
	a.measureSs = append(a.measureSs, p.measure.Seconds())
	a.shutdownMs = append(a.shutdownMs, ms(p.shutdown))
	a.simHostS += (p.warmup + p.measure).Seconds()

	e := r.Engine
	a.fired += float64(e.Fired)
	a.cancelled += float64(e.Cancelled)
	a.scheduled += float64(e.Scheduled)
	a.band += float64(e.BandScheduled)
	a.peakPending = append(a.peakPending, float64(e.PeakPending))

	a.measureS += p.measure.Seconds()
	for name, v := range map[string]uint64{
		"instructions":    r.Ctr.Total(perf.Instructions),
		"cycles":          r.Ctr.Total(perf.Cycles),
		"llc_misses":      r.Ctr.Total(perf.LLCMisses),
		"dtlb_walks":      r.Ctr.Total(perf.DTLBWalks),
		"machine_clears":  r.Ctr.Total(perf.MachineClears),
		"spin_cycles":     r.Ctr.Total(perf.SpinCycles),
		"irqs":            r.Ctr.Total(perf.IRQsReceived),
		"ipis":            r.Ctr.Total(perf.IPIsReceived),
		"transactions":    r.Transactions,
		"retransmits":     r.Retransmits,
		"drops":           r.Drops,
		"conns_generated": r.ConnsGenerated,
		"syn_drops":       r.SynDrops,
	} {
		a.pmu[name] += float64(v)
	}
	if r.Requests > 0 {
		a.latP99 = append(a.latP99, float64(r.LatencyP99Cycles))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cellSpec is one cell of a cell workload and the key of its reference
// digest.
type cellSpec struct {
	key   string
	cfg   core.Config
	conns uint64 // open-loop cells must complete exactly this many
}

func sizeName(tiny bool) string {
	if tiny {
		return "tiny"
	}
	return "full"
}

// bulkCells are the paper's four affinity modes at TX 65536 B with the
// quick windows (tiny: a few million cycles).
func bulkCells(seed uint64, tiny bool) []cellSpec {
	warm, meas := uint64(30_000_000), uint64(100_000_000)
	if tiny {
		warm, meas = 1_000_000, 3_000_000
	}
	var cells []cellSpec
	for _, mode := range core.Modes() {
		cfg := core.DefaultConfig(mode, ttcp.TX, 65536)
		cfg.Seed = seed
		cfg.WarmupCycles, cfg.MeasureCycles = warm, meas
		cells = append(cells, cellSpec{
			key: fmt.Sprintf("bulk_64k/%s/seed=%d/%s", sizeName(tiny), seed, modeFlag(mode)),
			cfg: cfg,
		})
	}
	return cells
}

// churnCell is an open-loop connection-churn cell under full affinity,
// run to completion.
func churnCell(seed uint64, tiny bool) (cellSpec, error) {
	conns := 10000
	if tiny {
		conns = 300
	}
	cfg := core.DefaultConfig(core.ModeFull, ttcp.TX, 65536)
	cfg.Seed = seed
	spec, err := core.ParseWorkload(fmt.Sprintf("openloop,conns=%d", conns))
	if err != nil {
		return cellSpec{}, err
	}
	cfg.Workload = spec
	return cellSpec{
		key:   fmt.Sprintf("churn_10k/%s/seed=%d", sizeName(tiny), seed),
		cfg:   cfg,
		conns: uint64(conns),
	}, nil
}

// modeFlag is the affinity-sim -mode spelling of a mode.
func modeFlag(m core.Mode) string {
	switch m {
	case core.ModeProc:
		return "proc"
	case core.ModeIRQ:
		return "irq"
	case core.ModeFull:
		return "full"
	default:
		return "none"
	}
}

func bulkRound(b *bench, a *acc) error {
	return cellRound(b, a, bulkCells(b.simSeed, b.cfg.tiny))
}

func churnRound(b *bench, a *acc) error {
	c, err := churnCell(b.simSeed, b.cfg.tiny)
	if err != nil {
		return err
	}
	return cellRound(b, a, []cellSpec{c})
}

// cellRound runs the cells one at a time on this goroutine (a closed
// loop with one client), timing each and gating its exported JSON.
func cellRound(b *bench, a *acc, cells []cellSpec) error {
	round := b.tr.start("client.round", 0)
	defer round.end()
	var wall time.Duration
	for _, c := range cells {
		cell := b.tr.start("client.cell", round.id)
		before, allocOK := readAllocs()
		var violation string
		var gateAllocs allocReading
		r, p := simulate(c.cfg, b.tr, cell.id, func(m *core.Machine) {
			if !m.WL.Quiescible() {
				return
			}
			g0, _ := readAllocs()
			if err := m.CheckInvariants(); err != nil {
				violation = err.Error()
			}
			g1, _ := readAllocs()
			gateAllocs = g1.minus(g0)
		}, nil)
		sp := b.tr.start("core.export", cell.id)
		t := time.Now()
		js, err := r.JSON()
		export := time.Since(t)
		sp.end()
		after, _ := readAllocs()
		after = after.minus(gateAllocs)
		cell.end()
		if err != nil {
			return err
		}

		a.addResult(r, p)
		cellS := (p.warmup + p.measure + p.shutdown + export).Seconds()
		wall += p.warmup + p.measure + p.shutdown + export
		a.mu.Lock()
		a.exportMs = append(a.exportMs, ms(export))
		a.setup = append(a.setup, p.setup.Seconds())
		a.cellS = append(a.cellS, cellS)
		a.cells++
		a.cellTime += cellS + p.setup.Seconds()
		if allocOK {
			a.addAllocs(before, after, 1, float64(r.Engine.Fired))
		}
		a.mu.Unlock()

		problem := violation
		switch {
		case r.Aborted:
			problem = "aborted: " + r.AbortReason
		case c.conns > 0 && r.Transactions != c.conns:
			problem = fmt.Sprintf("incomplete churn cell: %d of %d connections completed", r.Transactions, c.conns)
		}
		a.check(b.cfg.refs, c.key, []byte(js), problem)
	}
	a.mu.Lock()
	a.wall = append(a.wall, wall.Seconds())
	a.mu.Unlock()
	return nil
}
