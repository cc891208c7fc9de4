package coord

import (
	"testing"
	"time"
)

// TestRetryWaitsRatherThanReturningToRefusingWorker pins the retry
// planner on a two-worker fleet where one worker refused the cell and
// the other is busy: the retry must wait for the busy worker's slot, not
// go back to the refusing one. The refusing worker becomes the fallback
// only once it is the sole worker left that could take the cell.
func TestRetryWaitsRatherThanReturningToRefusingWorker(t *testing.T) {
	const refusing, busy = "http://refusing", "http://busy"
	r := newRegistry(1, time.Hour)
	r.upsert(refusing, "v", 4)
	r.upsert(busy, "v", 1)

	held := r.tryAcquire(refusing)
	if held == nil || held.url != busy {
		t.Fatalf("first dispatch avoiding %s got %v, want %s", refusing, held, busy)
	}
	for i := 0; i < 10; i++ {
		if l := r.tryAcquire(refusing); l != nil {
			t.Fatalf("retry %d landed on %s while %s was only busy", i, l.url, busy)
		}
	}

	// The busy worker frees its slot: the waiting retry takes it.
	changed := r.waitCh()
	r.release(held)
	select {
	case <-changed:
	default:
		t.Fatal("release did not wake waiting retries")
	}
	l := r.tryAcquire(refusing)
	if l == nil || l.url != busy {
		t.Fatalf("retry after release got %v, want %s", l, busy)
	}

	// Its breaker opens: the refusing worker is now the only one that
	// could take the cell, so the retry falls back to it.
	r.release(l)
	changed = r.waitCh()
	if !r.fail(busy) {
		t.Fatal("breaker did not open at threshold 1")
	}
	select {
	case <-changed:
	default:
		t.Fatal("opening a breaker did not wake waiting retries")
	}
	if l := r.tryAcquire(refusing); l == nil || l.url != refusing {
		t.Fatalf("retry with %s's breaker open got %v, want fallback to %s", busy, l, refusing)
	}
}

// TestRetryFallsBackToSoleHealthyWorker: once every other worker has
// left the healthy set, the avoided worker takes the retry — as it does
// in a single-worker fleet.
func TestRetryFallsBackToSoleHealthyWorker(t *testing.T) {
	const refusing, other = "http://refusing", "http://other"
	r := newRegistry(0, time.Hour)
	r.upsert(refusing, "v", 2)
	if l := r.tryAcquire(refusing); l == nil || l.url != refusing {
		t.Fatalf("single-worker retry got %v, want %s", l, refusing)
	}

	r.upsert(other, "v", 1)
	held := r.tryAcquire(refusing)
	if held == nil || held.url != other {
		t.Fatalf("dispatch avoiding %s got %v, want %s", refusing, held, other)
	}
	if l := r.tryAcquire(refusing); l != nil {
		t.Fatalf("retry landed on %s while %s was only busy", l.url, other)
	}
	if !r.heartbeatMiss(other, 1) {
		t.Fatal("heartbeat miss did not evict")
	}
	if l := r.tryAcquire(refusing); l == nil || l.url != refusing {
		t.Fatalf("retry with %s evicted got %v, want fallback to %s", other, l, refusing)
	}
}
