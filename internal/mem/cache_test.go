package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refCache is the struct-slice cache the flat tag/recency arrays
// replaced, kept here as the reference model for the differential tests.
type refCache struct {
	sets [][]refCacheLine
	mask Addr
	tick uint64
}

type refCacheLine struct {
	tag   Addr // line-aligned address
	valid bool
	lru   uint64
}

func newRefCache(cfg CacheCfg) *refCache {
	nLines := cfg.Size / cfg.LineSize
	nSets := nLines / cfg.Ways
	sets := make([][]refCacheLine, nSets)
	backing := make([]refCacheLine, nLines)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &refCache{sets: sets, mask: Addr(nSets - 1)}
}

func (c *refCache) set(line Addr) []refCacheLine {
	return c.sets[(line>>LineShift)&c.mask]
}

// has reports presence without touching recency.
func (c *refCache) has(line Addr) bool {
	for _, l := range c.set(line) {
		if l.valid && l.tag == line {
			return true
		}
	}
	return false
}

func (c *refCache) Lookup(line Addr) bool {
	c.tick++
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lru = c.tick
			return true
		}
	}
	return false
}

func (c *refCache) Fill(line Addr) (evicted Addr, wasValid bool) {
	c.tick++
	set := c.set(line)
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].lru = c.tick
			return 0, false
		}
		if !set[i].valid {
			victim = i
			wasValid = false
			continue
		}
		if set[victim].valid && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	if set[victim].valid {
		evicted, wasValid = set[victim].tag, true
	}
	set[victim] = refCacheLine{tag: line, valid: true, lru: c.tick}
	return evicted, wasValid
}

func (c *refCache) Invalidate(line Addr) {
	set := c.set(line)
	for i := range set {
		if set[i].valid && set[i].tag == line {
			set[i].valid = false
			return
		}
	}
}

func (c *refCache) Flush() {
	for _, set := range c.sets {
		for i := range set {
			set[i].valid = false
		}
	}
}

// sameLayout reports the first way whose contents differ between the
// flat cache and the reference, or -1. Comparing way by way (not just
// set membership) pins the placement rule, which the public results
// cannot observe: which invalid way a fill takes.
func sameLayout(c *Cache, ref *refCache) int {
	for s, set := range ref.sets {
		for w, l := range set {
			want := Addr(0)
			if l.valid {
				want = l.tag | 1
			}
			if c.tags[s*c.ways+w] != want {
				return s*c.ways + w
			}
		}
	}
	return -1
}

// TestCacheMatchesReference drives randomized Lookup/Fill/Invalidate/
// Flush streams through the flat cache and the struct-slice reference on
// 4-way and 8-way geometries, comparing every hit/miss, every
// (evicted, wasValid) and, periodically, the way-by-way layout. Lines
// come from a pool about four times the capacity, including line 0, and
// a quarter of the operations invalidate, so fills regularly meet sets
// holding several invalid ways and lines that are already present.
func TestCacheMatchesReference(t *testing.T) {
	for _, ways := range []int{4, 8} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			cfg := CacheCfg{Name: "t", Size: 4 << 10, Ways: ways, LineSize: LineSize}
			rng := rand.New(rand.NewSource(int64(ways)))
			c, ref := NewCache(cfg), newRefCache(cfg)
			lines := 4 * cfg.Size / LineSize
			pick := func() Addr { return Addr(rng.Intn(lines)) << LineShift }
			refills := 0
			const steps = 200_000
			for step := 0; step < steps; step++ {
				line := pick()
				switch op := rng.Intn(200); {
				case op == 0:
					c.Flush()
					ref.Flush()
				case op < 50:
					c.Invalidate(line)
					ref.Invalidate(line)
				case op < 120:
					if got, want := c.Lookup(line), ref.Lookup(line); got != want {
						t.Fatalf("step %d: Lookup(%#x) = %v, reference %v", step, line, got, want)
					}
				default:
					if ref.has(line) {
						refills++
					}
					ev, was := c.Fill(line)
					rev, rwas := ref.Fill(line)
					if ev != rev || was != rwas {
						t.Fatalf("step %d: Fill(%#x) = (%#x, %v), reference (%#x, %v)", step, line, ev, was, rev, rwas)
					}
				}
				if step%1000 == 0 {
					if i := sameLayout(c, ref); i >= 0 {
						t.Fatalf("step %d: way %d holds %#x, reference differs", step, i, c.tags[i])
					}
				}
			}
			if i := sameLayout(c, ref); i >= 0 {
				t.Fatalf("end: way %d holds %#x, reference differs", i, c.tags[i])
			}
			if refills == 0 {
				t.Fatal("no fill of an already-present line was exercised")
			}
		})
	}
}

// TestCacheFillTakesLastInvalidWay pins the victim rule on one set: the
// last invalid way first (so an empty set fills from its last way down),
// then the least recently used valid way.
func TestCacheFillTakesLastInvalidWay(t *testing.T) {
	c := NewCache(CacheCfg{Name: "t", Size: 4096, Ways: 4, LineSize: LineSize})
	stride := Addr(16 * LineSize) // 16 sets: these lines share set 0
	const empty = ^Addr(0)
	layout := func(lines ...Addr) bool {
		for w, l := range lines {
			want := l | 1
			if l == empty {
				want = 0
			}
			if c.tags[w] != want {
				return false
			}
		}
		return true
	}
	for i := Addr(0); i < 4; i++ {
		c.Fill(i * stride)
	}
	if !layout(3*stride, 2*stride, stride, 0) {
		t.Fatalf("cold fills took layout %#x, want ways 3, 2, 1, 0 in turn", c.tags[:4])
	}
	c.Invalidate(stride)     // way 2
	c.Invalidate(2 * stride) // way 1
	if _, was := c.Fill(4 * stride); was || !layout(3*stride, empty, 4*stride, 0) {
		t.Fatalf("fill took layout %#x, want way 2, the last of two invalid ways", c.tags[:4])
	}
	if _, was := c.Fill(5 * stride); was || !layout(3*stride, 5*stride, 4*stride, 0) {
		t.Fatalf("fill took layout %#x, want the remaining invalid way 1", c.tags[:4])
	}
	// Full set: line 0, in way 3, is the least recently used.
	if ev, was := c.Fill(6 * stride); !was || ev != 0 || !layout(3*stride, 5*stride, 4*stride, 6*stride) {
		t.Fatalf("full-set fill evicted (%#x, %v) into layout %#x, want line 0 from way 3", ev, was, c.tags[:4])
	}
}

// TestHierarchyMatchesReference drives two processors' hierarchies with
// random Access, AccessRange, DMARead and DMAWrite, comparing every
// AccessResult and RangeResult with hierarchies built from the reference
// caches (over the reference directory). One geometry is small so
// back-invalidations are frequent; the other is the paper's.
func TestHierarchyMatchesReference(t *testing.T) {
	var paper [3]CacheCfg
	paper[0], paper[1], paper[2] = P4XeonMP()
	for _, tc := range []struct {
		name string
		geo  [3]CacheCfg
	}{
		{"small", [3]CacheCfg{
			{Name: "l1", Size: 1 << 10, Ways: 4, LineSize: LineSize},
			{Name: "l2", Size: 4 << 10, Ways: 8, LineSize: LineSize},
			{Name: "l3", Size: 16 << 10, Ways: 8, LineSize: LineSize},
		}},
		{"P4XeonMP", paper},
	} {
		geo := tc.geo
		t.Run(tc.name, func(t *testing.T) {
			const cpus = 2
			rng := rand.New(rand.NewSource(11))
			d := NewDirectory(cpus)
			refDir := &refDirectory{lines: map[Addr]*dirLine{}, dmaReadInvalidates: d.DMAReadInvalidates}
			hs := make([]*Hierarchy, cpus)
			rs := make([]*refHierarchy, cpus)
			for c := 0; c < cpus; c++ {
				hs[c] = NewHierarchy(c, geo[0], geo[1], geo[2], d)
				rs[c] = &refHierarchy{cpu: c, l1: newRefCache(geo[0]), l2: newRefCache(geo[1]), llc: newRefCache(geo[2]), dir: refDir}
			}
			// Four times the LLC, so capacity misses reach memory.
			span := 4 * geo[2].Size
			pick := func() Addr { return Addr(rng.Intn(span)) }
			const steps = 100_000
			for step := 0; step < steps; step++ {
				c := rng.Intn(cpus)
				a := pick()
				write := rng.Intn(3) == 0
				switch op := rng.Intn(20); {
				case op == 0:
					d.DMAWrite(LineOf(a))
					refDir.DMAWrite(LineOf(a))
				case op == 1:
					if got, want := d.DMARead(LineOf(a)), refDir.DMARead(LineOf(a)); got != want {
						t.Fatalf("step %d: DMARead(%#x) = %v, reference %v", step, LineOf(a), got, want)
					}
				case op < 5:
					size := rng.Intn(2 * PageSize)
					if got, want := hs[c].AccessRange(a, size, write), rs[c].AccessRange(a, size, write); got != want {
						t.Fatalf("step %d: AccessRange(cpu %d, %#x, %d, write=%v) = %+v, reference %+v", step, c, a, size, write, got, want)
					}
				default:
					if got, want := hs[c].Access(a, write), rs[c].Access(LineOf(a), write); got != want {
						t.Fatalf("step %d: Access(cpu %d, %#x, write=%v) = %+v, reference %+v", step, c, a, write, got, want)
					}
				}
			}
		})
	}
}

// TestFrontEndDoesNotAllocate pins the TLB miss/evict path and cache
// fills with eviction at zero allocations, as their benchmarks report.
func TestFrontEndDoesNotAllocate(t *testing.T) {
	tlb := NewTLB(64)
	_, _, llc := P4XeonMP()
	c := NewCache(llc)
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		tlb.Access(Addr(i%96) * PageSize)
		c.Fill(Addr(i) << LineShift)
		c.Lookup(Addr(i/2) << LineShift)
		i++
	}); n != 0 {
		t.Fatalf("%v allocs per TLB access + cache fill/lookup, want 0", n)
	}
}
