// Columns: the struct-of-arrays view of a branch trace, the storage and
// replay representation of the columnar pipeline (docs/ARCHITECTURE.md,
// "Trace dataflow"). Replay touches PC/Target/Flags on every record but
// PID/Program only on entity switches, so packing the hot fields into
// dense arrays keeps the replay loop's memory traffic to the bytes it
// actually reads, where a []Record stream drags the full 32-byte struct
// through the cache per record.

package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

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
// All six columns always have equal length, and Len is the full record
// count from the start.
//
// A row is final once it is published: every row of columns built by
// GenerateColumns, decoding, mapping or FromRecords is final when they
// are returned, but the rows of a Stream's columns become final chunk
// by chunk while the generation runs. Wait blocks until a prefix of
// rows is final; the replay loops (sim.RunColumnsCtx and
// RunColumnsMulti) wait for each chunk before stepping it, and nothing
// else may read a row before it is final. A final row never changes,
// so Columns are safe to share read-only across cells, exactly like a
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

	// gate publishes how many rows of a Stream's columns are final (nil
	// when every row is final); first is this view's row 0 as a row of
	// the gated columns.
	gate  *rowGate
	first int
}

// Wait blocks until rows [0, rows) of c are final. It returns at once
// on columns whose rows are all final, ctx.Err() when ctx is done
// first, and the generation's error when it failed before publishing
// them.
func (c *Columns) Wait(ctx context.Context, rows int) error {
	if c.gate == nil {
		return nil
	}
	return c.gate.wait(ctx, c.first+rows)
}

// streamChunk is how many rows a Stream's generation publishes at a
// time: the chunk a replay steps between context checks
// (sim.runCheckInterval), so a replay waiting on rows wakes once per
// chunk.
const streamChunk = 8192

// rowGate is the publication point of a Stream: final counts the
// leading rows that are final, and wake is closed (and replaced) at each
// publication and at a failure, so waiters block without polling.
type rowGate struct {
	final atomic.Int64

	mu   sync.Mutex
	wake chan struct{}
	err  error
}

func (g *rowGate) wait(ctx context.Context, rows int) error {
	for {
		if g.final.Load() >= int64(rows) {
			return nil
		}
		g.mu.Lock()
		wake, err := g.wake, g.err
		g.mu.Unlock()
		if err != nil {
			return err
		}
		// A publication between the first check and taking wake closed
		// an older channel; check once more before sleeping on this one.
		if g.final.Load() >= int64(rows) {
			return nil
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// signal wakes every waiter, setting err first when it is non-nil.
func (g *rowGate) signal(err error) {
	g.mu.Lock()
	if err != nil && g.err == nil {
		g.err = err
	}
	close(g.wake)
	g.wake = make(chan struct{})
	g.mu.Unlock()
}

// Stream is the write side of columns generated while they are read:
// NewStream preallocates every row, a generator (Generator.Fill,
// PhasedGenerator.Fill) writes the rows in order and publishes them
// every few thousand, and replays of Columns() step each chunk as soon
// as it is final. A Stream has one writer.
type Stream struct {
	cols *Columns
}

// NewStream preallocates rows rows of columns named name, none of them
// final yet.
func NewStream(name string, rows int) *Stream {
	c := newColumns(name, rows)
	c.gate = &rowGate{wake: make(chan struct{})}
	return &Stream{cols: c}
}

// Columns returns the stream's columns: Len is the full row count at
// once, and Wait reports which rows are final.
func (s *Stream) Columns() *Columns { return s.cols }

// Fail ends a generation that cannot finish: every Wait for a row not
// yet final returns err.
func (s *Stream) Fail(err error) { s.cols.gate.signal(err) }

// publish marks rows [0, rows) final. A nil stream (a generation
// building complete columns) publishes nothing.
func (s *Stream) publish(rows int) {
	if s == nil {
		return
	}
	s.cols.gate.final.Store(int64(rows))
	s.cols.gate.signal(nil)
}

// newColumns allocates n rows of every column.
func newColumns(name string, n int) *Columns {
	return &Columns{
		Name:     name,
		PCs:      make([]uint64, n),
		Targets:  make([]uint64, n),
		Flags:    make([]byte, n),
		PIDs:     make([]uint32, n),
		Programs: make([]uint16, n),
	}
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
// treated as immutable, and its Wait waits on c's rows [lo, hi). Slice
// panics when the bounds are out of range, matching built-in slice
// semantics. Views are cheap cursors for phase replay — do not store
// them in byte-budgeted caches, where SizeBytes would charge the full
// backing arrays again.
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
		gate:     c.gate,
		first:    c.first + lo,
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
// on mmap-backed traces and must be treated as immutable. It reads
// every row, so every row of c must be final.
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
	c := newColumns(name, len(recs))
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
