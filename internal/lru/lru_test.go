package lru

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func one(string) int64 { return 1 }

func value(v string) func() (string, error) {
	return func() (string, error) { return v, nil }
}

// do runs g.Do under a background context and fails the test on error.
func do(t *testing.T, g *Group[string], key string, fn func() (string, error)) (string, Outcome) {
	t.Helper()
	v, how, err := g.Do(context.Background(), key, fn)
	if err != nil {
		t.Fatalf("Do(%q): %v", key, err)
	}
	return v, how
}

func TestEntryBoundEvictsLeastRecentlyUsed(t *testing.T) {
	g := New(2, one)
	do(t, g, "a", value("A"))
	do(t, g, "b", value("B"))
	if v, how := do(t, g, "a", value("stale")); v != "A" || how != Hit {
		t.Fatalf("resident a = %q, %v; want A, Hit", v, how)
	}
	do(t, g, "c", value("C")) // b is now the coldest
	if n, used, ev := g.Len(); n != 2 || used != 2 || ev != 1 {
		t.Fatalf("Len = %d, %d, %d; want 2 entries, 2 used, 1 eviction", n, used, ev)
	}
	if _, how := do(t, g, "a", value("A2")); how != Hit {
		t.Errorf("a evicted out of LRU order")
	}
	if v, how := do(t, g, "b", value("B2")); how != Led || v != "B2" {
		t.Errorf("b = %q, %v; want a fresh lead after eviction", v, how)
	}
}

func TestByteBoundAndOversizedRefusal(t *testing.T) {
	g := New(10, func(v string) int64 { return int64(len(v)) })
	do(t, g, "a", value("aaaa"))
	do(t, g, "b", value("bbbb"))
	do(t, g, "c", value("cccc")) // 12 bytes > 10: a goes
	if n, used, ev := g.Len(); n != 2 || used != 8 || ev != 1 {
		t.Fatalf("Len = %d, %d, %d; want 2 entries, 8 bytes, 1 eviction", n, used, ev)
	}
	// A value larger than the whole bound is returned but not stored,
	// and evicts nothing.
	if v, how := do(t, g, "big", value("0123456789ab")); v != "0123456789ab" || how != Led {
		t.Fatalf("oversized lead = %q, %v", v, how)
	}
	if n, used, ev := g.Len(); n != 2 || used != 8 || ev != 1 {
		t.Fatalf("oversized value changed the store: Len = %d, %d, %d", n, used, ev)
	}
	if _, how := do(t, g, "big", value("0123456789ab")); how != Led {
		t.Errorf("oversized value was stored")
	}
}

// lead starts a leader for key that blocks until release closes, then
// calls finish. It returns once the leader holds the flight.
func lead(g *Group[string], key string, release <-chan struct{}, finish func() (string, error)) <-chan error {
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				done <- errors.New("leader panicked")
			}
		}()
		_, _, err := g.Do(context.Background(), key, func() (string, error) {
			close(entered)
			<-release
			return finish()
		})
		done <- err
	}()
	<-entered
	return done
}

type result struct {
	v   string
	how Outcome
	err error
}

// parkSpy reports, by closing parked, the first time Do asks for the
// context's Done channel: the moment a waiter blocks on a flight.
type parkSpy struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func (c *parkSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// waiter calls Do for key from another goroutine, which must find key
// in flight. It returns once that call waits on the flight; the call
// reports through the returned channel.
func waiter(ctx context.Context, g *Group[string], key string, fn func() (string, error)) <-chan result {
	spy := &parkSpy{Context: ctx, parked: make(chan struct{})}
	out := make(chan result, 1)
	go func() {
		v, how, err := g.Do(spy, key, fn)
		out <- result{v, how, err}
	}()
	<-spy.parked
	return out
}

func TestFailedLeaderStoresNothingAndWaiterLeads(t *testing.T) {
	g := New(0, one)
	release := make(chan struct{})
	boom := errors.New("boom")
	leaderDone := lead(g, "k", release, func() (string, error) { return "partial", boom })
	w := waiter(context.Background(), g, "k", value("mine"))
	close(release)
	if err := <-leaderDone; !errors.Is(err, boom) {
		t.Fatalf("leader error = %v, want its own failure", err)
	}
	r := <-w
	if r.err != nil || r.v != "mine" || r.how != Led {
		t.Fatalf("waiter = %+v; want it to lead again with its own value", r)
	}
	if n, _, _ := g.Len(); n != 1 {
		t.Fatalf("entries = %d, want only the waiter's value", n)
	}
}

func TestPanickingLeaderReleasesWaiters(t *testing.T) {
	g := New(0, one)
	release := make(chan struct{})
	leaderDone := lead(g, "k", release, func() (string, error) { panic("simulator bug") })
	w := waiter(context.Background(), g, "k", value("after"))
	close(release)
	if err := <-leaderDone; err == nil {
		t.Fatal("panic did not reach the leader's caller")
	}
	if r := <-w; r.err != nil || r.v != "after" || r.how != Led {
		t.Fatalf("waiter = %+v; want it released to lead", r)
	}
	// The key is not left in flight: with no waiter to take over, the
	// next call runs its function instead of hanging on a dead flight.
	g2 := New(0, one)
	release2 := make(chan struct{})
	close(release2)
	if err := <-lead(g2, "k", release2, func() (string, error) { panic("again") }); err == nil {
		t.Fatal("panic did not reach the leader's caller")
	}
	ran := false
	if _, how := do(t, g2, "k", func() (string, error) { ran = true; return "y", nil }); how != Led || !ran {
		t.Fatal("key left in flight after a panicking leader")
	}
}

func TestWaiterContextEndsWhileLeaderFinishes(t *testing.T) {
	g := New(0, one)
	release := make(chan struct{})
	leaderDone := lead(g, "k", release, value("leader"))
	ctx, cancel := context.WithCancel(context.Background())
	w := waiter(ctx, g, "k", value("never"))
	cancel()
	if r := <-w; !errors.Is(r.err, context.Canceled) {
		t.Fatalf("waiter = %+v; want ctx.Err()", r)
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if v, how := do(t, g, "k", value("stale")); v != "leader" || how != Hit {
		t.Fatalf("after the leader finished: %q, %v; want its stored value", v, how)
	}
}

func TestSharedFlightRunsOnce(t *testing.T) {
	g := New(0, one)
	release := make(chan struct{})
	leaderDone := lead(g, "k", release, value("v"))
	ws := make([]<-chan result, 8)
	for i := range ws {
		ws[i] = waiter(context.Background(), g, "k", func() (string, error) {
			t.Error("a waiter ran its function while the leader was in flight")
			return "", nil
		})
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if r := <-w; r.err != nil || r.v != "v" || r.how == Led {
			t.Errorf("waiter = %+v; want the leader's value", r)
		}
	}
}
