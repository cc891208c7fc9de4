package mem

import "fmt"

// CacheCfg sizes one cache level.
type CacheCfg struct {
	Name     string
	Size     int // total bytes
	Ways     int // associativity
	LineSize int // bytes per line; must currently equal LineSize
}

// P4XeonMP returns the cache geometry of the paper's system under test:
// 8 KB L1D, 512 KB L2 and 2 MB L3 per processor (Gallatin-class Xeon MP).
func P4XeonMP() (l1, l2, llc CacheCfg) {
	l1 = CacheCfg{Name: "L1D", Size: 8 << 10, Ways: 4, LineSize: LineSize}
	l2 = CacheCfg{Name: "L2", Size: 512 << 10, Ways: 8, LineSize: LineSize}
	llc = CacheCfg{Name: "L3", Size: 2 << 20, Ways: 8, LineSize: LineSize}
	return l1, l2, llc
}

// TraceCacheCfg returns the geometry used to model the P4 trace cache
// (12K µops ≈ 16 KB of decoded instruction bytes in this model).
func TraceCacheCfg() CacheCfg {
	return CacheCfg{Name: "TC", Size: 16 << 10, Ways: 8, LineSize: LineSize}
}

// Cache is one set-associative, LRU cache level. It tracks only presence
// (tags); dirtiness and cross-CPU validity live in the coherence
// Directory so invalidation can be lazy.
//
// The sets are flat parallel arrays indexed by set*ways+way: tags holds
// line|1 for a valid way and 0 for an invalid one (lines are 64-byte
// aligned, so bit 0 is free to mean "valid"), and lru holds each way's
// last-use tick.
type Cache struct {
	cfg     CacheCfg
	tags    []Addr
	lru     []uint64
	ways    int
	mask    Addr
	tick    uint64
	hits    uint64
	lookups uint64
}

// NewCache builds an empty cache. It panics on degenerate geometry.
func NewCache(cfg CacheCfg) *Cache {
	if cfg.LineSize != LineSize {
		panic(fmt.Sprintf("mem: cache %q line size %d unsupported", cfg.Name, cfg.LineSize))
	}
	nLines := cfg.Size / cfg.LineSize
	if cfg.Ways <= 0 || nLines <= 0 || nLines%cfg.Ways != 0 {
		panic(fmt.Sprintf("mem: cache %q bad geometry size=%d ways=%d", cfg.Name, cfg.Size, cfg.Ways))
	}
	nSets := nLines / cfg.Ways
	if nSets&(nSets-1) != 0 {
		panic(fmt.Sprintf("mem: cache %q set count %d not a power of two", cfg.Name, nSets))
	}
	return &Cache{
		cfg:  cfg,
		tags: make([]Addr, nLines),
		lru:  make([]uint64, nLines),
		ways: cfg.Ways,
		mask: Addr(nSets - 1),
	}
}

// Cfg returns the cache's geometry.
func (c *Cache) Cfg() CacheCfg { return c.cfg }

// set returns the first way index of the line's set and its tag slice.
func (c *Cache) set(line Addr) (int, []Addr) {
	base := int((line>>LineShift)&c.mask) * c.ways
	return base, c.tags[base : base+c.ways]
}

// Lookup reports whether the line-aligned address is present, updating
// LRU on hit.
func (c *Cache) Lookup(line Addr) bool {
	c.lookups++
	c.tick++
	base, tags := c.set(line)
	want := line | 1
	for i, tag := range tags {
		if tag == want {
			c.lru[base+i] = c.tick
			c.hits++
			return true
		}
	}
	return false
}

// Fill installs the line-aligned address, evicting if necessary. The
// victim is the last invalid way of the set, else the least recently used
// valid way. Filling a line that is already present only refreshes its
// recency. It returns the evicted line address and true if a valid line
// was displaced.
func (c *Cache) Fill(line Addr) (evicted Addr, wasValid bool) {
	c.tick++
	base, tags := c.set(line)
	lru := c.lru[base : base+len(tags)]
	want := line | 1
	victim := -1
	for i, tag := range tags {
		if tag == want {
			lru[i] = c.tick
			return 0, false
		}
		if tag == 0 {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		oldest := lru[0]
		for i := 1; i < len(lru); i++ {
			if lru[i] < oldest {
				victim, oldest = i, lru[i]
			}
		}
		evicted, wasValid = tags[victim]&^1, true
	}
	tags[victim] = want
	lru[victim] = c.tick
	return evicted, wasValid
}

// Invalidate drops the line if present.
func (c *Cache) Invalidate(line Addr) {
	_, tags := c.set(line)
	want := line | 1
	for i, tag := range tags {
		if tag == want {
			tags[i] = 0
			return
		}
	}
}

// Flush empties the cache.
func (c *Cache) Flush() {
	clear(c.tags)
}

// HitRate reports lifetime hits/lookups, for diagnostics and tests.
func (c *Cache) HitRate() float64 {
	if c.lookups == 0 {
		return 0
	}
	return float64(c.hits) / float64(c.lookups)
}
