package mem

import "testing"

// BenchmarkHierarchyWarmAccess measures the L1-hit fast path.
func BenchmarkHierarchyWarmAccess(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	h.Access(0x1000, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0x1000, false)
	}
}

// BenchmarkHierarchyStreaming measures a cold streaming pass (misses,
// fills, evictions, directory updates) per 4 KB page.
func BenchmarkHierarchyStreaming(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h := NewHierarchy(0, l1, l2, llc, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.AccessRange(Addr(0x10000+uint64(i%4096)*PageSize), PageSize, true)
	}
}

// BenchmarkCoherencePingPong measures the remote-dirty transfer path.
func BenchmarkCoherencePingPong(b *testing.B) {
	d := NewDirectory(2)
	l1, l2, llc := P4XeonMP()
	h0 := NewHierarchy(0, l1, l2, llc, d)
	h1 := NewHierarchy(1, l1, l2, llc, d)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			h0.Access(0x2000, true)
		} else {
			h1.Access(0x2000, true)
		}
	}
}

// BenchmarkTLB measures the translation fast path.
func BenchmarkTLB(b *testing.B) {
	t := NewTLB(64)
	t.Access(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(0)
	}
}

// BenchmarkTLBMissEvict measures the miss path: 96 pages cycled through
// a 64-entry TLB, so every access walks and evicts the LRU entry.
func BenchmarkTLBMissEvict(b *testing.B) {
	t := NewTLB(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Access(Addr(i%96) * PageSize)
	}
}

// BenchmarkCacheFillEvict measures LLC-geometry fills that each displace
// a valid line: a stream over twice the cache's capacity.
func BenchmarkCacheFillEvict(b *testing.B) {
	_, _, llc := P4XeonMP()
	c := NewCache(llc)
	lines := 2 * llc.Size / LineSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Fill(Addr(i%lines) << LineShift)
	}
}
