package mem

// Directory is the machine-wide coherence state: for every cache line
// ever touched, which CPUs hold a valid copy and whether one of them
// holds it modified. It plays the role of the snooping FSB on the real
// Shasta-G platform, reduced to the facts the simulation needs:
//
//   - a CPU's cached copy is usable only while its presence bit is set;
//     a write elsewhere (or DMA from a NIC) clears it, so the next access
//     takes a miss — this is how context/skb bouncing between processors
//     turns into LLC misses, the paper's primary cache effect;
//   - a read that hits a line modified by another CPU is served by a
//     cache-to-cache transfer, which the PMU model counts as a last-level
//     miss (and flags Remote for diagnostics).
//
// Invalidation is lazy: clearing a presence bit does not walk the other
// CPU's cache arrays; the stale tags simply fail the presence check on
// their next use.
//
// The simulated address space is a bump allocator (Space), so the lines
// in use are dense from address zero: the state lives in a slab indexed
// by line number (addr >> LineShift). A zero entry is exactly a line the
// directory has never seen. The slab starts at initialDirLines and
// doubles whenever a write-side update lands past its end, as it does
// when the TCP arena allocates at run time; read-side queries past the
// end see an untouched line.
type Directory struct {
	cpus  int
	lines []dirLine
	// DMAReadInvalidates selects the chipset's transmit-DMA snoop
	// behaviour: when true, a device read of a line evicts CPU copies
	// (invalidate-on-snoop-read, as server chipsets of the era did to
	// shed snoop traffic), so transmit buffers are cache-cold when the
	// allocator recycles them — matching the paper's full-affinity
	// transmit-copy MPI of ~0.01. When false, CPU copies survive.
	DMAReadInvalidates bool
}

type dirLine struct {
	presence uint32 // bit per CPU
	dirty    bool
	owner    int8 // valid only while dirty
}

// initialDirLines is the slab's starting size: 64 Ki lines, 4 MiB of
// simulated address space.
const initialDirLines = 1 << 16

// NewDirectory returns an empty directory for a machine with cpus
// processors (at most 32).
func NewDirectory(cpus int) *Directory {
	if cpus <= 0 || cpus > 32 {
		panic("mem: directory supports 1..32 CPUs")
	}
	return &Directory{cpus: cpus, lines: make([]dirLine, initialDirLines)}
}

// line returns the entry for a line-aligned address, growing the slab to
// cover it.
func (d *Directory) line(a Addr) *dirLine {
	i := uint64(a >> LineShift)
	if i >= uint64(len(d.lines)) {
		d.grow(i)
	}
	return &d.lines[i]
}

// grow doubles the slab until it covers line index i.
func (d *Directory) grow(i uint64) {
	n := len(d.lines)
	for uint64(n) <= i {
		n *= 2
	}
	grown := make([]dirLine, n)
	copy(grown, d.lines)
	d.lines = grown
}

// peek returns the entry for a line-aligned address, or nil past the end
// of the slab (a line never written).
func (d *Directory) peek(a Addr) *dirLine {
	i := uint64(a >> LineShift)
	if i >= uint64(len(d.lines)) {
		return nil
	}
	return &d.lines[i]
}

// HasCopy reports whether cpu currently holds a coherent copy of the
// line-aligned address.
func (d *Directory) HasCopy(cpu int, line Addr) bool {
	l := d.peek(line)
	return l != nil && l.presence&(1<<uint(cpu)) != 0
}

// DirtyElsewhere reports whether the line is modified in some CPU other
// than cpu.
func (d *Directory) DirtyElsewhere(cpu int, line Addr) bool {
	l := d.peek(line)
	return l != nil && l.dirty && int(l.owner) != cpu
}

// OnRead records that cpu obtained a readable copy. It returns true if the
// fill was served by a cache-to-cache transfer from a modified remote copy
// (which also writes the line back, leaving it shared).
func (d *Directory) OnRead(cpu int, line Addr) (remote bool) {
	l := d.line(line)
	if l.dirty && int(l.owner) != cpu {
		remote = true
		l.dirty = false
	}
	l.presence |= 1 << uint(cpu)
	return remote
}

// OnWrite records that cpu obtained exclusive, modified ownership: every
// other copy is invalidated. It returns true if a modified remote copy had
// to be transferred first.
func (d *Directory) OnWrite(cpu int, line Addr) (remote bool) {
	l := d.line(line)
	if l.dirty && int(l.owner) != cpu {
		remote = true
	}
	l.presence = 1 << uint(cpu)
	l.dirty = true
	l.owner = int8(cpu)
	return remote
}

// OnEvict records that cpu dropped its copy (last-level eviction). A
// modified line owned by cpu is written back and becomes clean.
func (d *Directory) OnEvict(cpu int, line Addr) {
	l := d.peek(line)
	if l == nil {
		return
	}
	l.presence &^= 1 << uint(cpu)
	if l.dirty && int(l.owner) == cpu {
		l.dirty = false
	}
}

// DMAWrite records a device write to the line (NIC receive DMA): memory
// now holds the only valid copy, so every CPU's copy is invalidated. The
// next CPU touch is necessarily a memory access — receive payload "is
// always uncached" (§6.1).
func (d *Directory) DMAWrite(line Addr) {
	l := d.line(line)
	l.presence = 0
	l.dirty = false
}

// DMARead records a device read of the line (NIC transmit DMA): a
// modified CPU copy is flushed to memory first. Whether CPU copies
// survive depends on DMAReadInvalidates.
func (d *Directory) DMARead(line Addr) (wasDirty bool) {
	l := d.peek(line)
	if l == nil {
		return false
	}
	wasDirty = l.dirty
	l.dirty = false
	if d.DMAReadInvalidates {
		l.presence = 0
	}
	return wasDirty
}
