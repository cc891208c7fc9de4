package cache

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/perf"
)

// DirEnv names the environment variable selecting the on-disk store
// directory. Empty or unset keeps the cache memory-only.
const DirEnv = "AFFINITY_CACHE_DIR"

// DefaultMaxBytes is the in-memory bound used by the serving daemon and
// figure generator when none is given: roomy enough for thousands of
// entries (one paper-shape Result is a few tens of KiB) without
// threatening a build host.
const DefaultMaxBytes = 256 << 20

// Cache memoizes simulation Results keyed by config Fingerprint. It is
// safe for concurrent use. Layers, checked in order:
//
//  1. a byte-bounded in-memory LRU,
//  2. singleflight: concurrent requests for the same fingerprint wait
//     for one leader instead of simulating redundantly,
//  3. an optional on-disk store (gob, atomic write-rename), surviving
//     process restarts,
//  4. the simulation itself.
//
// A nil *Cache is the disabled state: GetOrRun degenerates to calling
// the run function directly.
type Cache struct {
	maxBytes int64
	dir      string
	mem      *lru.Group[*core.Result]

	hits            atomic.Uint64
	misses          atomic.Uint64
	coalesced       atomic.Uint64
	diskHits        atomic.Uint64
	sims            atomic.Uint64
	diskErrors      atomic.Uint64
	corruptDiscards atomic.Uint64
	aborts          atomic.Uint64
	inflight        atomic.Int64
}

// errAborted marks an aborted simulation as a failed lead: the group
// hands the result back to its own caller only and stores nothing.
var errAborted = errors.New("simulation aborted")

// New builds a cache bounded to maxBytes of in-memory results
// (maxBytes <= 0 means unbounded) with an optional disk store rooted at
// dir ("" disables persistence; the directory is created on first write).
func New(maxBytes int64, dir string) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		dir:      dir,
		mem:      lru.New(maxBytes, resultBytes),
	}
}

// Run is GetOrRun over the canonical core.Run.
func (c *Cache) Run(cfg core.Config) *core.Result { return c.GetOrRun(cfg, core.Run) }

// RunFunc adapts the cache to the runner's cell-executor slot:
// runner.Use(c.RunFunc()) makes every cell the runner executes
// cache-aware.
func (c *Cache) RunFunc() core.RunFunc { return c.Run }

// GetOrRun returns the Result for cfg, simulating via run at most once
// per fingerprint no matter how many goroutines ask concurrently.
// Uncacheable configs (see Cacheable) and a nil receiver pass straight
// through to run.
func (c *Cache) GetOrRun(cfg core.Config, run core.RunFunc) *core.Result {
	if run == nil {
		run = core.Run
	}
	if c == nil || !Cacheable(cfg) {
		return run(cfg)
	}
	key := Fingerprint(cfg)
	res, how, _ := c.mem.Do(context.Background(), key, func() (*core.Result, error) {
		return c.lead(key, cfg, run)
	})
	switch how {
	case lru.Hit:
		c.hits.Add(1)
	case lru.Shared:
		c.coalesced.Add(1)
	}
	return res
}

// lead is the non-deduplicated path beneath the memory store: disk
// lookup, then simulation, populating the disk store on the way out.
func (c *Cache) lead(key string, cfg core.Config, run core.RunFunc) (*core.Result, error) {
	c.misses.Add(1)
	if res, ok := c.loadDisk(key, cfg); ok {
		c.diskHits.Add(1)
		return res, nil
	}
	c.sims.Add(1)
	c.inflight.Add(1)
	res := run(cfg)
	c.inflight.Add(-1)
	if res != nil && res.Aborted {
		// An aborted run is a failure signal, not a result: hand it back
		// to the caller that owns the cancel, but keep it out of both
		// stores, so coalesced waiters re-contend for leadership with
		// their own (live) signal instead of inheriting this caller's
		// abort.
		c.aborts.Add(1)
		return res, errAborted
	}
	c.storeDisk(key, res)
	return res, nil
}

// resultBytes estimates the resident size of one cached Result: the
// counter matrix dominates (symbols × CPUs × events × 8 bytes), plus the
// symbol names and the per-CPU slices.
func resultBytes(r *core.Result) int64 {
	const fixed = 512 // struct headers, scalars, slice headers
	size := int64(fixed)
	size += int64(len(r.Util))*8 + int64(len(r.IdleCycles))*8
	if r.Ctr != nil {
		tab := r.Ctr.Table()
		size += int64(tab.Len()) * int64(r.Ctr.CPUs()) * int64(perf.NumEvents) * 8
		for _, s := range tab.Symbols() {
			size += int64(len(tab.Name(s))) + 32
		}
	}
	return size
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Entries and Bytes describe the in-memory LRU right now; MaxBytes
	// is its configured bound (0 = unbounded).
	Entries  int
	Bytes    int64
	MaxBytes int64
	// Hits are in-memory LRU hits; Coalesced are requests that waited on
	// an identical in-flight computation instead of simulating; DiskHits
	// are misses served from the on-disk store; Sims are actual
	// simulations executed; Misses = DiskHits + Sims.
	Hits, Misses, Coalesced, DiskHits, Sims uint64
	// Evictions counts LRU entries dropped to hold the byte bound.
	Evictions uint64
	// DiskErrors counts failed best-effort disk reads/writes.
	DiskErrors uint64
	// CorruptDiscards counts persisted entries that failed to decode
	// (truncated gob, unreconstructable counter dump) and were unlinked
	// so every waiter and future lookup treats the key as a clean miss.
	CorruptDiscards uint64
	// Aborts counts simulations that returned Aborted (cancelled or over
	// budget) and were therefore kept out of every store.
	Aborts uint64
	// Inflight is the number of simulations executing right now.
	Inflight int64
	// Dir is the disk store root ("" = memory only).
	Dir string
}

// Stats snapshots the counters; nil-safe.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	entries, bytes, evictions := c.mem.Len()
	return Stats{
		Entries:         entries,
		Bytes:           bytes,
		MaxBytes:        c.maxBytes,
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Coalesced:       c.coalesced.Load(),
		DiskHits:        c.diskHits.Load(),
		Sims:            c.sims.Load(),
		Evictions:       evictions,
		DiskErrors:      c.diskErrors.Load(),
		CorruptDiscards: c.corruptDiscards.Load(),
		Aborts:          c.aborts.Load(),
		Inflight:        c.inflight.Load(),
		Dir:             c.dir,
	}
}

// HitRatio is hits (memory + coalesced + disk) over total lookups, in
// [0,1]; 0 when nothing has been asked yet.
func (s Stats) HitRatio() float64 {
	total := s.Hits + s.Coalesced + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Coalesced+s.DiskHits) / float64(total)
}
