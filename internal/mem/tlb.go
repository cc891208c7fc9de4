package mem

// TLB models one translation-lookaside buffer as a fully-associative,
// LRU-replaced set of page entries. The P4-era parts had 64-entry
// instruction and data TLBs and no address-space identifiers, so a
// context switch to a different address space flushes everything — one of
// the costs process migration and interrupt intrusion impose.
//
// Entries live in a fixed array of capacity slots threaded on an exact
// recency list (head = most recent, tail = the LRU victim), found through
// a small open-addressed index with linear probing. A hit and a miss are
// both O(1): no map, and no scan to pick the victim.
type TLB struct {
	entries []tlbEntry // slot -> page, linked in recency order
	head    int32      // most recently used slot, or -1
	tail    int32      // least recently used slot, or -1
	n       int32      // live entries (slots [0, n) are in use)
	index   []tlbIndex // open-addressed page -> slot, ≤ 50% load
	shift   uint       // 64 - log2(len(index)), for the multiplicative hash
	hits    uint64
	lookups uint64
}

type tlbEntry struct {
	page       Addr
	prev, next int32 // toward head / toward tail; -1 at the ends
}

// tlbIndex is one index bucket; slot is the entry slot plus one, so the
// zero value is an empty bucket.
type tlbIndex struct {
	page Addr
	slot int32
}

// NewTLB returns an empty TLB holding capacity entries.
func NewTLB(capacity int) *TLB {
	if capacity <= 0 {
		panic("mem: TLB capacity must be positive")
	}
	size, bits := 2, uint(1)
	for size < 2*capacity {
		size <<= 1
		bits++
	}
	return &TLB{
		entries: make([]tlbEntry, capacity),
		head:    -1,
		tail:    -1,
		index:   make([]tlbIndex, size),
		shift:   64 - bits,
	}
}

// home is the page's preferred index bucket (Fibonacci hashing of the
// page number).
func (t *TLB) home(page Addr) int {
	return int((uint64(page>>PageShift) * 0x9E3779B97F4A7C15) >> t.shift)
}

// Access translates the page containing addr. It reports false on a miss
// (a page walk), installing the entry and evicting the least recently
// used one when full.
func (t *TLB) Access(addr Addr) bool {
	page := PageOf(addr)
	t.lookups++
	mask := len(t.index) - 1
	i := t.home(page)
	for t.index[i].slot != 0 {
		if t.index[i].page == page {
			t.touch(t.index[i].slot - 1)
			t.hits++
			return true
		}
		i = (i + 1) & mask
	}
	var s int32
	if int(t.n) < len(t.entries) {
		s = t.n
		t.n++
	} else {
		// The tail is the unique least recently used entry: the same
		// victim a minimum-last-use scan picks.
		s = t.tail
		t.unlink(s)
		t.unindex(t.entries[s].page)
		i = t.home(page)
		for t.index[i].slot != 0 {
			i = (i + 1) & mask
		}
	}
	t.index[i] = tlbIndex{page: page, slot: s + 1}
	t.entries[s].page = page
	t.pushFront(s)
	return false
}

// touch moves slot s to the head of the recency list.
func (t *TLB) touch(s int32) {
	if t.head == s {
		return
	}
	e := &t.entries[s]
	prev, next := e.prev, e.next // s is not the head, so prev >= 0
	t.entries[prev].next = next
	if next >= 0 {
		t.entries[next].prev = prev
	} else {
		t.tail = prev
	}
	e.prev, e.next = -1, t.head
	t.entries[t.head].prev = s
	t.head = s
}

func (t *TLB) unlink(s int32) {
	e := &t.entries[s]
	if e.prev >= 0 {
		t.entries[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.entries[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *TLB) pushFront(s int32) {
	e := &t.entries[s]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.entries[t.head].prev = s
	} else {
		t.tail = s
	}
	t.head = s
}

// unindex removes a present page from the index with backward-shift
// deletion, so probe chains stay unbroken without tombstones.
func (t *TLB) unindex(page Addr) {
	mask := len(t.index) - 1
	i := t.home(page)
	for t.index[i].page != page || t.index[i].slot == 0 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.index[j].slot != 0; j = (j + 1) & mask {
		// The bucket at j may fill the hole at i only if i lies on its
		// probe path, i.e. within [home, j) cyclically.
		if (j-t.home(t.index[j].page))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = tlbIndex{}
}

// AccessRange translates every page in [addr, addr+size) and returns the
// number of walks (misses).
func (t *TLB) AccessRange(addr Addr, size int) int {
	if size <= 0 {
		return 0
	}
	walks := 0
	first := PageOf(addr)
	last := PageOf(addr + Addr(size) - 1)
	for page := first; ; page += PageSize {
		if !t.Access(page) {
			walks++
		}
		if page == last {
			break
		}
	}
	return walks
}

// Flush empties the TLB (address-space switch).
func (t *TLB) Flush() {
	clear(t.index)
	t.n, t.head, t.tail = 0, -1, -1
}

// Len reports the number of live entries.
func (t *TLB) Len() int { return int(t.n) }

// HitRate reports lifetime hits/lookups.
func (t *TLB) HitRate() float64 {
	if t.lookups == 0 {
		return 0
	}
	return float64(t.hits) / float64(t.lookups)
}
