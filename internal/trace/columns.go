// Columns: the struct-of-arrays view of a branch trace, the storage and
// replay representation of the columnar pipeline (docs/ARCHITECTURE.md,
// "Trace dataflow"). Replay touches PC/Target/Flags on every record but
// PID/Program only on entity switches, so packing the hot fields into
// dense arrays keeps the replay loop's memory traffic to the bytes it
// actually reads, where a []Record stream drags the full 32-byte struct
// through the cache per record.

package trace

import "fmt"

// Flag bits of one packed per-record flag byte. The layout is shared
// with the STBT codec's record flags (codec.go), so decoding a trace
// into columns copies the flag byte after masking the codec-private
// bits.
const (
	// FlagKindMask extracts the branch Kind from a flag byte.
	FlagKindMask byte = 0x07
	// FlagTaken is set for taken branches.
	FlagTaken byte = 1 << 3
	// FlagKernel is set for records executed in supervisor mode.
	FlagKernel byte = 1 << 4

	// flagRecordMask keeps the bits PackFlags produces; the STBT codec
	// uses higher bits for stream-local state (samePID) that must never
	// leak into stored columns.
	flagRecordMask = FlagKindMask | FlagTaken | FlagKernel
)

// PackFlags packs a record's kind, direction, and mode into one flag
// byte (the Columns.Flags element for that record).
func PackFlags(k Kind, taken, kernel bool) byte {
	f := byte(k)
	if taken {
		f |= FlagTaken
	}
	if kernel {
		f |= FlagKernel
	}
	return f
}

// Columns is a branch trace in struct-of-arrays form: parallel packed
// arrays indexed by record position. PCs, Targets, and Flags are the
// replay-hot columns; PIDs and Programs are the rarely-touched entity
// side arrays (read only on entity switches and by flushing models).
// All six columns always have equal length. A Columns is immutable
// once built and safe to share read-only across cells, exactly like a
// cached *Trace.
type Columns struct {
	// Name is the workload name (preset name for synthetic traces).
	Name string
	// PCs holds the 48-bit branch virtual addresses.
	PCs []uint64
	// Targets holds the resolved targets (fall-through for not-taken
	// conditionals).
	Targets []uint64
	// Flags packs kind/taken/kernel per record (see PackFlags).
	Flags []byte
	// PIDs holds the per-record software entity.
	PIDs []uint32
	// Programs holds the per-record binary identity.
	Programs []uint16

	// parent keeps the Columns a view (Slice, OffsetEntities) was cut
	// from reachable. mmap-backed columns (tracestore.SetMapped) unmap
	// their region via a finalizer on the original *Columns; a view that
	// outlived it would read unmapped memory, so every view pins its
	// source.
	parent *Columns
}

// Len reports the number of records.
func (c *Columns) Len() int { return len(c.PCs) }

// Kind extracts record i's branch class.
func (c *Columns) Kind(i int) Kind { return Kind(c.Flags[i] & FlagKindMask) }

// Taken reports record i's resolved direction.
func (c *Columns) Taken(i int) bool { return c.Flags[i]&FlagTaken != 0 }

// Kernel reports whether record i executed in supervisor mode.
func (c *Columns) Kernel(i int) bool { return c.Flags[i]&FlagKernel != 0 }

// Slice returns a read-only view of rows [lo, hi) sharing the backing
// arrays. The view retains a reference to c (see the parent field), so
// slicing an mmap-backed trace is safe; like c itself, the view must be
// treated as immutable. Slice panics when the bounds are out of range,
// matching built-in slice semantics. Views are cheap cursors for phase
// replay — do not store them in byte-budgeted caches, where SizeBytes
// would charge the full backing arrays again.
func (c *Columns) Slice(lo, hi int) *Columns {
	if lo < 0 || hi < lo || hi > c.Len() {
		panic(fmt.Sprintf("trace: Slice bounds [%d:%d) out of range for %d records", lo, hi, c.Len()))
	}
	return &Columns{
		Name:     c.Name,
		PCs:      c.PCs[lo:hi:hi],
		Targets:  c.Targets[lo:hi:hi],
		Flags:    c.Flags[lo:hi:hi],
		PIDs:     c.PIDs[lo:hi:hi],
		Programs: c.Programs[lo:hi:hi],
		parent:   c.owner(),
	}
}

// owner is the Columns a view must pin: c itself, or, when c is a view,
// the original it was cut from.
func (c *Columns) owner() *Columns {
	if c.parent != nil {
		return c.parent
	}
	return c
}

// OffsetEntities returns a view of c whose PIDs and Programs are c's
// plus pid and program, with the other columns shared. An SMT co-run
// replays its second thread through such a view so the two threads'
// entities never collide in the token table. The view owns its two
// entity columns and, like a Slice view, pins c's owner, so it is safe
// on mmap-backed traces and must be treated as immutable.
func (c *Columns) OffsetEntities(pid uint32, program uint16) *Columns {
	v := &Columns{
		Name:     c.Name,
		PCs:      c.PCs,
		Targets:  c.Targets,
		Flags:    c.Flags,
		PIDs:     make([]uint32, len(c.PIDs)),
		Programs: make([]uint16, len(c.Programs)),
		parent:   c.owner(),
	}
	for i, p := range c.PIDs {
		v.PIDs[i] = p + pid
	}
	for i, p := range c.Programs {
		v.Programs[i] = p + program
	}
	return v
}

// Record materializes row i as an AoS Record.
func (c *Columns) Record(i int) Record {
	f := c.Flags[i]
	return Record{
		PC:      c.PCs[i],
		Target:  c.Targets[i],
		PID:     c.PIDs[i],
		Program: c.Programs[i],
		Kind:    Kind(f & FlagKindMask),
		Taken:   f&FlagTaken != 0,
		Kernel:  f&FlagKernel != 0,
	}
}

// FromRecords converts an AoS record slice to columns. The conversion
// is lossless: ToRecords of the result reproduces recs exactly.
func FromRecords(name string, recs []Record) *Columns {
	c := &Columns{
		Name:     name,
		PCs:      make([]uint64, len(recs)),
		Targets:  make([]uint64, len(recs)),
		Flags:    make([]byte, len(recs)),
		PIDs:     make([]uint32, len(recs)),
		Programs: make([]uint16, len(recs)),
	}
	for i := range recs {
		r := &recs[i]
		c.PCs[i] = r.PC
		c.Targets[i] = r.Target
		c.Flags[i] = PackFlags(r.Kind, r.Taken, r.Kernel)
		c.PIDs[i] = r.PID
		c.Programs[i] = r.Program
	}
	return c
}

// FromTrace converts a materialized trace to columns.
func FromTrace(t *Trace) *Columns { return FromRecords(t.Name, t.Records) }

// ToRecords materializes the whole trace as AoS records.
func (c *Columns) ToRecords() []Record {
	recs := make([]Record, c.Len())
	for i := range recs {
		recs[i] = c.Record(i)
	}
	return recs
}

// Trace materializes the columns as a Trace (a fresh record slice each
// call).
func (c *Columns) Trace() *Trace { return &Trace{Name: c.Name, Records: c.ToRecords()} }

// SizeBytes reports the exact resident footprint of the columns: the
// capacity of every backing array times its element width, plus the
// name bytes. Byte-budgeted caches use it to charge stored traces for
// what they actually pin in memory.
func (c *Columns) SizeBytes() int64 {
	return int64(cap(c.PCs))*8 +
		int64(cap(c.Targets))*8 +
		int64(cap(c.Flags)) +
		int64(cap(c.PIDs))*4 +
		int64(cap(c.Programs))*2 +
		int64(len(c.Name))
}

// Validate checks the structural invariants Trace.Validate checks,
// plus the columnar ones: equal column lengths and no codec-private
// flag bits.
func (c *Columns) Validate() error {
	n := len(c.PCs)
	if len(c.Targets) != n || len(c.Flags) != n || len(c.PIDs) != n || len(c.Programs) != n {
		return fmt.Errorf("trace %q: ragged columns (%d/%d/%d/%d/%d)",
			c.Name, n, len(c.Targets), len(c.Flags), len(c.PIDs), len(c.Programs))
	}
	for i := 0; i < n; i++ {
		if c.Flags[i]&^flagRecordMask != 0 {
			return fmt.Errorf("trace %q record %d: stray flag bits %#x", c.Name, i, c.Flags[i])
		}
		if c.PCs[i]&^VAMask != 0 {
			return fmt.Errorf("trace %q record %d: PC %#x exceeds 48 bits", c.Name, i, c.PCs[i])
		}
		if c.Targets[i]&^VAMask != 0 {
			return fmt.Errorf("trace %q record %d: target %#x exceeds 48 bits", c.Name, i, c.Targets[i])
		}
		k := Kind(c.Flags[i] & FlagKindMask)
		if k >= numKinds {
			return fmt.Errorf("trace %q record %d: invalid kind %d", c.Name, i, uint8(k))
		}
		if k != KindCond && c.Flags[i]&FlagTaken == 0 {
			return fmt.Errorf("trace %q record %d: unconditional %v marked not-taken", c.Name, i, k)
		}
	}
	return nil
}
