// Package lru is the bounded LRU store fronted by singleflight that holds
// both the result cache's Results (bounded by bytes) and the fleet
// coordinator's memo of raw NDJSON lines (bounded by entries).
package lru

import (
	"container/list"
	"context"
	"sync"
)

// Outcome says how Do produced its value.
type Outcome uint8

const (
	Led    Outcome = iota // this caller ran the function
	Hit                   // the value was resident
	Shared                // this caller took another caller's in-flight result
)

// Group is an LRU store bounded by the sum of a caller-supplied size
// over its values, with at most one computation in flight per key. It
// is safe for concurrent use.
type Group[V any] struct {
	max  int64
	size func(V) int64

	mu        sync.Mutex
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	flight    map[string]*call[V]
	used      int64
	evictions uint64
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

type call[V any] struct {
	done chan struct{}
	val  V
	ok   bool // set before done closes; false if the leader failed or panicked
}

// New builds a group holding values whose sizes sum to at most max
// (max <= 0 means unbounded). size must be safe to call concurrently.
func New[V any](max int64, size func(V) int64) *Group[V] {
	return &Group[V]{
		max:    max,
		size:   size,
		ll:     list.New(),
		byKey:  make(map[string]*list.Element),
		flight: make(map[string]*call[V]),
	}
}

// Do returns the value for key, running fn at most once per key across
// concurrent callers. A leader whose fn fails hands its value and error
// to its own caller only: nothing is stored, and callers waiting on it
// contend to lead again. A leader that panics releases its waiters the
// same way. A waiter whose ctx ends stops waiting and returns ctx.Err().
func (g *Group[V]) Do(ctx context.Context, key string, fn func() (V, error)) (V, Outcome, error) {
	for {
		g.mu.Lock()
		if el, ok := g.byKey[key]; ok {
			g.ll.MoveToFront(el)
			v := el.Value.(*entry[V]).val
			g.mu.Unlock()
			return v, Hit, nil
		}
		c, ok := g.flight[key]
		if !ok {
			c = &call[V]{done: make(chan struct{})}
			g.flight[key] = c
			g.mu.Unlock()
			v, err := g.lead(key, c, fn)
			return v, Led, err
		}
		g.mu.Unlock()
		select {
		case <-c.done:
			if c.ok {
				return c.val, Shared, nil
			}
		case <-ctx.Done():
			var zero V
			return zero, Shared, ctx.Err()
		}
	}
}

// lead runs fn, then (on panic too) ends the flight and stores a
// successful value in one critical section before releasing the waiters.
func (g *Group[V]) lead(key string, c *call[V], fn func() (V, error)) (V, error) {
	var size int64
	defer func() {
		g.mu.Lock()
		delete(g.flight, key)
		if c.ok {
			g.insert(key, c.val, size)
		}
		g.mu.Unlock()
		close(c.done)
	}()
	v, err := fn()
	if err == nil {
		size = g.size(v)
		c.val, c.ok = v, true
	}
	return v, err
}

// insert adds a value at the front, evicting from the cold end until the
// bound holds again. A value larger than the whole bound is not stored:
// it would evict everything else for one entry. Callers hold g.mu.
func (g *Group[V]) insert(key string, v V, size int64) {
	if g.max > 0 && size > g.max {
		return
	}
	g.byKey[key] = g.ll.PushFront(&entry[V]{key: key, val: v, size: size})
	g.used += size
	for g.max > 0 && g.used > g.max {
		cold := g.ll.Back()
		e := cold.Value.(*entry[V])
		g.ll.Remove(cold)
		delete(g.byKey, e.key)
		g.used -= e.size
		g.evictions++
	}
}

// Len reports the resident entries, the sum of their sizes and the
// evictions so far; nil-safe.
func (g *Group[V]) Len() (entries int, used int64, evictions uint64) {
	if g == nil {
		return 0, 0, 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.ll.Len(), g.used, g.evictions
}
