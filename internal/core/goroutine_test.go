package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/ttcp"
)

// TestShutdownLeavesNoGoroutine runs small connection-churn cells, shuts
// each machine down and checks that the goroutine count is back at its
// baseline. Simulated processes are coroutines: Shutdown must release
// every one that started, and one that never started must own no
// goroutine at all, or each finished cell would pin its whole machine.
// The cut-short cell ends before its spawned processes first run, which
// is the case a short-window sweep cell hits.
func TestShutdownLeavesNoGoroutine(t *testing.T) {
	settle := func(want int) int {
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= want || time.Now().After(deadline) {
				return n
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, tc := range []struct {
		name   string
		window uint64
	}{
		{"to-completion", openLoopHorizon},
		{"cut-short", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := settle(runtime.NumGoroutine())
			cfg := DefaultConfig(ModeFull, ttcp.TX, 65536)
			cfg.Workload = mustWorkload(t, "openloop,conns=1000")
			m := NewMachine(cfg)
			r := m.Measure(tc.window)
			if tc.window == openLoopHorizon && r.Transactions != 1000 {
				t.Fatalf("cell incomplete: %d of 1000 transactions", r.Transactions)
			}
			m.Shutdown()
			if n := settle(base); n > base {
				t.Fatalf("goroutines = %d after Shutdown, baseline %d", n, base)
			}
		})
	}
}
