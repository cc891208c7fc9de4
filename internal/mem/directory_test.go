package mem

import (
	"fmt"
	"math/rand"
	"testing"
)

// refDirectory is the map-based coherence directory the dense slab
// replaced, kept here as the reference model for the differential test.
type refDirectory struct {
	lines              map[Addr]*dirLine
	dmaReadInvalidates bool
}

func (d *refDirectory) line(a Addr) *dirLine {
	l := d.lines[a]
	if l == nil {
		l = &dirLine{}
		d.lines[a] = l
	}
	return l
}

func (d *refDirectory) HasCopy(cpu int, line Addr) bool {
	l := d.lines[line]
	return l != nil && l.presence&(1<<uint(cpu)) != 0
}

func (d *refDirectory) DirtyElsewhere(cpu int, line Addr) bool {
	l := d.lines[line]
	return l != nil && l.dirty && int(l.owner) != cpu
}

func (d *refDirectory) OnRead(cpu int, line Addr) bool {
	l := d.line(line)
	remote := l.dirty && int(l.owner) != cpu
	if remote {
		l.dirty = false
	}
	l.presence |= 1 << uint(cpu)
	return remote
}

func (d *refDirectory) OnWrite(cpu int, line Addr) bool {
	l := d.line(line)
	remote := l.dirty && int(l.owner) != cpu
	l.presence = 1 << uint(cpu)
	l.dirty = true
	l.owner = int8(cpu)
	return remote
}

func (d *refDirectory) OnEvict(cpu int, line Addr) {
	l := d.lines[line]
	if l == nil {
		return
	}
	l.presence &^= 1 << uint(cpu)
	if l.dirty && int(l.owner) == cpu {
		l.dirty = false
	}
}

func (d *refDirectory) DMAWrite(line Addr) {
	l := d.line(line)
	l.presence = 0
	l.dirty = false
}

func (d *refDirectory) DMARead(line Addr) bool {
	l := d.lines[line]
	if l == nil {
		return false
	}
	wasDirty := l.dirty
	l.dirty = false
	if d.dmaReadInvalidates {
		l.presence = 0
	}
	return wasDirty
}

// refHierarchy replays Hierarchy.Access against the reference directory
// with reference caches, so a hierarchy access can be compared end to end.
type refHierarchy struct {
	cpu         int
	l1, l2, llc *refCache
	dir         *refDirectory
}

func (h *refHierarchy) AccessRange(addr Addr, size int, write bool) RangeResult {
	var r RangeResult
	if size <= 0 {
		return r
	}
	last := LineOf(addr + Addr(size) - 1)
	for line := LineOf(addr); ; line += LineSize {
		a := h.Access(line, write)
		r.Lines++
		switch a.Level {
		case LevelL1:
			r.L1Hits++
		case LevelL2:
			r.L2Hits++
		case LevelLLC:
			r.LLCHits++
		case LevelMemory:
			r.Misses++
			if a.Remote {
				r.Remote++
			}
		}
		if line == last {
			break
		}
	}
	return r
}

func (h *refHierarchy) Access(line Addr, write bool) AccessResult {
	valid := h.dir.HasCopy(h.cpu, line)
	var res AccessResult
	switch {
	case valid && h.l1.Lookup(line):
		res.Level = LevelL1
	case valid && h.l2.Lookup(line):
		res.Level = LevelL2
		h.l1.Fill(line)
	case valid && h.llc.Lookup(line):
		res.Level = LevelLLC
		h.l2.Fill(line)
		h.l1.Fill(line)
	default:
		res.Level = LevelMemory
		res.Remote = h.dir.DirtyElsewhere(h.cpu, line)
		if evicted, was := h.llc.Fill(line); was {
			h.l2.Invalidate(evicted)
			h.l1.Invalidate(evicted)
			h.dir.OnEvict(h.cpu, evicted)
		}
		h.l2.Fill(line)
		h.l1.Fill(line)
	}
	if write {
		h.dir.OnWrite(h.cpu, line)
	} else if res.Level == LevelMemory {
		h.dir.OnRead(h.cpu, line)
	}
	return res
}

// TestDirectoryMatchesMapReference drives a randomized sequence of
// hierarchy accesses and direct OnRead/OnWrite/OnEvict/DMARead/DMAWrite
// calls over four CPUs through the dense directory and the map-based
// reference, comparing every result and, periodically, every tracked
// line's state. Addresses reach three times past the initial slab, so
// the slab has to grow mid-sequence.
func TestDirectoryMatchesMapReference(t *testing.T) {
	const cpus = 4
	for _, inval := range []bool{true, false} {
		t.Run(fmt.Sprintf("DMAReadInvalidates=%v", inval), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			d := NewDirectory(cpus)
			d.DMAReadInvalidates = inval
			ref := &refDirectory{lines: map[Addr]*dirLine{}, dmaReadInvalidates: inval}
			// Small caches so evictions (and OnEvict) are frequent.
			l1 := CacheCfg{Name: "l1", Size: 1 << 10, Ways: 2, LineSize: LineSize}
			l2 := CacheCfg{Name: "l2", Size: 4 << 10, Ways: 4, LineSize: LineSize}
			l3 := CacheCfg{Name: "l3", Size: 16 << 10, Ways: 8, LineSize: LineSize}
			hs := make([]*Hierarchy, cpus)
			rs := make([]*refHierarchy, cpus)
			for c := 0; c < cpus; c++ {
				hs[c] = NewHierarchy(c, l1, l2, l3, d)
				rs[c] = &refHierarchy{cpu: c, l1: newRefCache(l1), l2: newRefCache(l2), llc: newRefCache(l3), dir: ref}
			}

			// Half the traffic goes to a hot set so lines are shared and
			// bounced; the rest spreads over 3× the initial slab.
			hot := make([]Addr, 256)
			for i := range hot {
				hot[i] = Addr(rng.Intn(3*initialDirLines)) << LineShift
			}
			touched := map[Addr]bool{}
			pick := func() Addr {
				if rng.Intn(2) == 0 {
					return hot[rng.Intn(len(hot))]
				}
				return Addr(rng.Intn(3*initialDirLines)) << LineShift
			}
			checkAll := func(step int) {
				t.Helper()
				for line := range touched {
					for c := 0; c < cpus; c++ {
						if got, want := d.HasCopy(c, line), ref.HasCopy(c, line); got != want {
							t.Fatalf("step %d: HasCopy(%d, %#x) = %v, reference %v", step, c, line, got, want)
						}
						if got, want := d.DirtyElsewhere(c, line), ref.DirtyElsewhere(c, line); got != want {
							t.Fatalf("step %d: DirtyElsewhere(%d, %#x) = %v, reference %v", step, c, line, got, want)
						}
					}
				}
			}

			const steps = 200_000
			for step := 0; step < steps; step++ {
				c := rng.Intn(cpus)
				line := pick()
				touched[line] = true
				switch op := rng.Intn(10); op {
				case 0, 1, 2, 3:
					write := op&1 == 1
					if got, want := hs[c].Access(line, write), rs[c].Access(line, write); got != want {
						t.Fatalf("step %d: Access(cpu %d, %#x, write=%v) = %+v, reference %+v", step, c, line, write, got, want)
					}
				case 4:
					if got, want := d.OnRead(c, line), ref.OnRead(c, line); got != want {
						t.Fatalf("step %d: OnRead(%d, %#x) = %v, reference %v", step, c, line, got, want)
					}
				case 5:
					if got, want := d.OnWrite(c, line), ref.OnWrite(c, line); got != want {
						t.Fatalf("step %d: OnWrite(%d, %#x) = %v, reference %v", step, c, line, got, want)
					}
				case 6:
					d.OnEvict(c, line)
					ref.OnEvict(c, line)
				case 7:
					if got, want := d.DMARead(line), ref.DMARead(line); got != want {
						t.Fatalf("step %d: DMARead(%#x) = %v, reference %v", step, line, got, want)
					}
				case 8:
					d.DMAWrite(line)
					ref.DMAWrite(line)
				case 9:
					if got, want := d.HasCopy(c, line), ref.HasCopy(c, line); got != want {
						t.Fatalf("step %d: HasCopy(%d, %#x) = %v, reference %v", step, c, line, got, want)
					}
				}
				if step%20_000 == 0 {
					checkAll(step)
				}
			}
			checkAll(steps)
			if len(d.lines) <= initialDirLines {
				t.Fatalf("slab never grew: %d lines", len(d.lines))
			}
		})
	}
}

// TestDirectoryQueriesPastSlabDoNotGrow pins that read-side queries and
// no-op updates past the end of the slab answer "never seen" without
// allocating, while a write-side update grows the slab to cover it.
func TestDirectoryQueriesPastSlabDoNotGrow(t *testing.T) {
	d := NewDirectory(2)
	far := Addr(8*initialDirLines) << LineShift
	if d.HasCopy(0, far) || d.DirtyElsewhere(1, far) || d.DMARead(far) {
		t.Fatal("untouched line past the slab reported state")
	}
	d.OnEvict(0, far)
	if len(d.lines) != initialDirLines {
		t.Fatalf("read-side calls grew the slab to %d lines", len(d.lines))
	}
	if d.OnWrite(1, far) {
		t.Fatal("first write flagged remote")
	}
	if len(d.lines) != 16*initialDirLines {
		t.Fatalf("slab = %d lines after a write at line %d, want %d", len(d.lines), 8*initialDirLines, 16*initialDirLines)
	}
	if !d.HasCopy(1, far) || !d.DirtyElsewhere(0, far) {
		t.Fatal("write past the slab lost its state after growing")
	}
}
