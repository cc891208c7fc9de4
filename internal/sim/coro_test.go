package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall to at most want
// and returns the last count seen. Exits of finished goroutines are
// immediate for runtime coroutines, but the test runner's own goroutines
// may still be winding down from an earlier test.
func settleGoroutines(want int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestCoroUnstartedOwnsNoGoroutine pins the lazy start: creating a
// coroutine must not park a goroutine for it, or every never-started
// coroutine keeps its machine reachable.
func TestCoroUnstartedOwnsNoGoroutine(t *testing.T) {
	base := settleGoroutines(runtime.NumGoroutine())
	cs := make([]*Coro, 1000)
	for i := range cs {
		cs[i] = NewCoro("idle", func(c *Coro) { t.Error("body ran") })
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("1000 unstarted coroutines hold %d goroutines", n-base)
	}
	for _, c := range cs {
		c.Kill()
		if !c.Done() {
			t.Fatal("unstarted coroutine not done after Kill")
		}
	}
}

// TestCoroReleasesGoroutines runs 1000 create/resume/kill cycles, half of
// them finishing and half killed while parked, and checks that the
// goroutine count returns to its baseline.
func TestCoroReleasesGoroutines(t *testing.T) {
	base := settleGoroutines(runtime.NumGoroutine())
	for i := 0; i < 1000; i++ {
		c := NewCoro("cycle", func(c *Coro) {
			c.Park()
			c.Park()
		})
		c.Resume()
		if i%2 == 0 {
			c.Resume()
			c.Resume()
		} else {
			c.Kill()
		}
		if !c.Done() {
			t.Fatalf("cycle %d: coroutine not done", i)
		}
	}
	if n := settleGoroutines(base); n > base {
		t.Fatalf("goroutines = %d after 1000 cycles, baseline %d", n, base)
	}
}

// recoverMessage runs f and returns the panic value it raised, formatted,
// or "<no panic>".
func recoverMessage(f func()) (msg string) {
	msg = "<no panic>"
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return msg
}

// TestCoroPanicMessages pins the exact messages a body panic and a panic
// in deferred cleanup during Kill surface with, and that each surfaces
// once.
func TestCoroPanicMessages(t *testing.T) {
	boom := NewCoro("boom", func(c *Coro) {
		c.Park()
		panic("late")
	})
	boom.Resume()
	if got, want := recoverMessage(boom.Resume), `sim: coroutine "boom" panicked: late`; got != want {
		t.Fatalf("Resume panic = %q, want %q", got, want)
	}
	if !boom.Done() {
		t.Fatal("panicked coroutine not done")
	}

	cleanup := NewCoro("cleanup", func(c *Coro) {
		defer func() { panic("cleanup failed") }()
		c.Park()
	})
	cleanup.Resume()
	if got, want := recoverMessage(cleanup.Kill), `sim: coroutine "cleanup" panicked: cleanup failed`; got != want {
		t.Fatalf("Kill panic = %q, want %q", got, want)
	}
	if !cleanup.Done() {
		t.Fatal("coroutine not done after a panicking Kill")
	}
	if got := recoverMessage(cleanup.Kill); got != "<no panic>" {
		t.Fatalf("second Kill raised %q; the panic must surface once", got)
	}
}

// TestCoroParkDuringKillUnwind covers a deferred cleanup that parks while
// the coroutine is being killed: the park cannot hand control back, so it
// unwinds again and Kill still completes.
func TestCoroParkDuringKillUnwind(t *testing.T) {
	cleaned := false
	c := NewCoro("stubborn", func(c *Coro) {
		defer func() { cleaned = true }()
		defer c.Park()
		c.Park()
	})
	c.Resume()
	c.Kill()
	if !c.Done() || !cleaned {
		t.Fatalf("done=%v cleaned=%v after Kill", c.Done(), cleaned)
	}
}

// TestKillRunningCoroutinePanics pins the guard against killing a
// coroutine from inside its own body.
func TestKillRunningCoroutinePanics(t *testing.T) {
	var got string
	c := NewCoro("self", func(c *Coro) {
		got = recoverMessage(c.Kill)
	})
	c.Resume()
	if want := `sim: kill of running coroutine "self"`; got != want {
		t.Fatalf("self-Kill panic = %q, want %q", got, want)
	}
}
