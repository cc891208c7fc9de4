package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTLB is the map-based TLB the recency list replaced, kept here as the
// reference model for the differential test: every entry carries its
// last-use tick and a miss at capacity evicts the minimum by scanning.
type refTLB struct {
	capacity int
	tick     uint64
	entries  map[Addr]uint64 // page address -> last-use tick
}

func newRefTLB(capacity int) *refTLB {
	return &refTLB{capacity: capacity, entries: make(map[Addr]uint64, capacity)}
}

func (t *refTLB) Access(addr Addr) bool {
	page := PageOf(addr)
	t.tick++
	if _, ok := t.entries[page]; ok {
		t.entries[page] = t.tick
		return true
	}
	if len(t.entries) >= t.capacity {
		var victim Addr
		oldest := t.tick + 1
		for p, use := range t.entries {
			if use < oldest {
				oldest = use
				victim = p
			}
		}
		delete(t.entries, victim)
	}
	t.entries[page] = t.tick
	return false
}

func (t *refTLB) AccessRange(addr Addr, size int) int {
	if size <= 0 {
		return 0
	}
	walks := 0
	last := PageOf(addr + Addr(size) - 1)
	for page := PageOf(addr); ; page += PageSize {
		if !t.Access(page) {
			walks++
		}
		if page == last {
			break
		}
	}
	return walks
}

func (t *refTLB) Flush() { clear(t.entries) }

// TestTLBMatchesMapReference drives randomized Access/AccessRange/Flush
// streams through the recency-list TLB and the map reference at several
// capacities, comparing every hit/miss (and walk count) and Len. The page
// pool is about three times the capacity, with a hot subset, so hits,
// evictions and index deletions are all frequent.
func TestTLBMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 4, 64} {
		t.Run(fmt.Sprintf("cap=%d", capacity), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(capacity)))
			tlb, ref := NewTLB(capacity), newRefTLB(capacity)
			pages := 3*capacity + 2
			pick := func() Addr {
				p := rng.Intn(pages)
				if rng.Intn(2) == 0 {
					p %= capacity
				}
				return Addr(p)*PageSize + Addr(rng.Intn(PageSize))
			}
			const steps = 100_000
			for step := 0; step < steps; step++ {
				switch op := rng.Intn(40); {
				case op == 0:
					tlb.Flush()
					ref.Flush()
				case op < 8:
					a, size := pick(), rng.Intn(4*PageSize)-PageSize/2
					if got, want := tlb.AccessRange(a, size), ref.AccessRange(a, size); got != want {
						t.Fatalf("step %d: AccessRange(%#x, %d) = %d walks, reference %d", step, a, size, got, want)
					}
				default:
					a := pick()
					if got, want := tlb.Access(a), ref.Access(a); got != want {
						t.Fatalf("step %d: Access(%#x) = %v, reference %v", step, a, got, want)
					}
				}
				if got, want := tlb.Len(), len(ref.entries); got != want {
					t.Fatalf("step %d: Len = %d, reference %d", step, got, want)
				}
			}
		})
	}
}
