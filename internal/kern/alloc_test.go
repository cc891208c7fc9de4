package kern

import (
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/perf"
	"repro/internal/sim"
)

// TestEnvRunAllocationFree pins the allocation-free kernel step: once a
// run is warm, N Env.Run steps on two processors (with the timer tick,
// boundary processing and coroutine handoff they imply) must allocate
// fewer than N/100 objects.
func TestEnvRunAllocationFree(t *testing.T) {
	r := newKernel(t, 2, 1)
	p := r.proc("step_fn", perf.BinOther)
	buf := r.k.Space.AllocPage(4096, "buf")
	steps := 0
	for c := 0; c < 2; c++ {
		r.k.Spawn("stepper", c, 1<<uint(c), func(e *Env) {
			for {
				e.Run(p, func(x *cpu.Exec) { x.Instr(200, 0.15, 0.01).Load(buf, 256) })
				steps++
			}
		})
	}
	r.eng.Run(2_000_000) // warm: coroutines started, arenas grown
	var before, after runtime.MemStats
	n0 := steps
	runtime.ReadMemStats(&before)
	r.eng.Run(sim.Time(60_000_000))
	runtime.ReadMemStats(&after)
	n := steps - n0
	if n < 50_000 {
		t.Fatalf("only %d steps ran; the test needs a long warm run", n)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs >= uint64(n/100) {
		t.Fatalf("%d Env.Run steps made %d allocations, want < %d", n, mallocs, n/100)
	}
}
