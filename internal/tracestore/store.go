// The Store implementation: LRU bookkeeping, singleflight streamed
// generation, columnar residency, and stats (see doc.go for the package
// overview; disk.go holds the persistent tier).

package tracestore

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
)

// Key identifies one generated trace.
type Key struct {
	// Name is the workload's canonical name (trace.CanonicalName): a
	// gem5 short name and its full SPEC name share one entry and one
	// spill.
	Name string
	// Records is the trace length.
	Records int
}

// String renders the key as the legacy per-run cache did ("name@records").
func (k Key) String() string { return fmt.Sprintf("%s@%d", k.Name, k.Records) }

// GenFunc materializes the trace for a key in columnar form. It must be
// deterministic: the store may drop and regenerate entries under byte
// pressure, and replay results must not depend on which copy a cell
// observed. A store with a custom GenFunc publishes its rows all at
// once, when it returns; only the default generator streams.
type GenFunc func(name string, records int) (*trace.Columns, trace.Profile, error)

// PresetProfile derives the workload profile for a key without
// generating the trace: a registered spec workload (spec.Register) when
// one owns the name, else the named preset resized to the requested
// record count — exactly the profile PresetGenColumns returns. The disk
// tier needs it: a trace decoded from an STBT spill carries no profile,
// so the store re-derives the (cheap, pure-metadata) profile instead of
// regenerating the records.
func PresetProfile(name string, records int) (trace.Profile, error) {
	if s, ok := spec.Lookup(name); ok {
		return s.Profile(records), nil
	}
	p, err := trace.Preset(name)
	if err != nil {
		return trace.Profile{}, err
	}
	return p.WithRecords(records), nil
}

// PresetGenColumns is the default generator: a registered spec workload
// when one owns the name (its canonical stream, seed 0), else the named
// trace preset resized to the requested record count, generated
// straight into columns. Spec workload names embed a content hash of
// the document, so the disk tier's (name, records) spill keys stay
// collision-free for them too. It returns when every row is final; the
// store runs the same generation as a stream (StreamColumns).
func PresetGenColumns(name string, records int) (*trace.Columns, trace.Profile, error) {
	prof, fill, err := presetSource(name, records)
	if err != nil {
		return nil, trace.Profile{}, err
	}
	st := trace.NewStream(prof.Name, prof.Records)
	if err := fill(st); err != nil {
		return nil, trace.Profile{}, err
	}
	return st.Columns(), prof, nil
}

// presetSource resolves a key of the default generator to its profile
// and to the generation that fills a stream of prof.Records rows. The
// profile costs nothing to derive; fill builds the program and writes
// the rows, the part the store runs on its own goroutine.
func presetSource(name string, records int) (prof trace.Profile, fill func(*trace.Stream) error, err error) {
	if s, ok := spec.Lookup(name); ok {
		return s.Profile(records), func(st *trace.Stream) error { return s.Fill(st, 0) }, nil
	}
	p, err := trace.Preset(name)
	if err != nil {
		return trace.Profile{}, nil, err
	}
	p = p.WithRecords(records)
	if err := p.Validate(); err != nil {
		return trace.Profile{}, nil, err
	}
	return p, func(st *trace.Stream) error {
		g, err := trace.NewGenerator(p)
		if err != nil {
			return err
		}
		return g.Fill(st)
	}, nil
}

// SizeOf reports the resident footprint in bytes of one stored trace.
// The store charges every entry through this hook, so tests can pin
// byte-exact budgets and alternative deployments can charge for
// overheads this package cannot see.
type SizeOf func(cols *trace.Columns) int64

// ExactSize is the default SizeOf: the capacity-exact footprint of the
// columns (trace.Columns.SizeBytes) plus fixed per-entry bookkeeping
// overhead, so the byte budget is respected to the byte.
func ExactSize(cols *trace.Columns) int64 {
	return entryOverheadBytes + cols.SizeBytes()
}

// DefaultMaxBytes bounds stores whose creator does not choose a budget:
// large enough that a QuickScale suite run never evicts, small enough that
// a full-scale sweep cannot hold hundreds of 250k-record traces at once.
const DefaultMaxBytes = 256 << 20

// entryOverheadBytes charges each entry for its map/list/struct/header
// overhead so a pathological many-tiny-traces workload still respects
// the bound.
const entryOverheadBytes = 256

// Stats is a point-in-time snapshot of store counters. Hits+Misses counts
// GetColumns calls; Generations counts actual synth runs (disk-tier
// loads satisfy a miss without a generation). The Disk* counters are
// zero unless a disk tier is configured (SetDir).
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Generations uint64 `json:"generations"`
	Evictions   uint64 `json:"evictions"`
	// DiskHits counts misses satisfied by decoding a spilled STBT file;
	// DiskMisses counts misses that found no usable spill; DiskWrites
	// counts traces spilled; DiskErrors counts unreadable/corrupt spills
	// and failed writes (both fall back to generation, never fail a lookup).
	DiskHits   uint64 `json:"disk_hits,omitempty"`
	DiskMisses uint64 `json:"disk_misses,omitempty"`
	DiskWrites uint64 `json:"disk_writes,omitempty"`
	DiskErrors uint64 `json:"disk_errors,omitempty"`
	// MmapHits counts disk hits satisfied zero-copy by mapping a v2
	// spill (a subset of DiskHits); BytesMapped is the total currently
	// mmap'd. Both are zero unless mapped mode is on (SetMapped).
	MmapHits    uint64 `json:"mmap_hits,omitempty"`
	BytesMapped int64  `json:"bytes_mapped,omitempty"`
	// Bytes is the current resident size; MaxBytes the configured bound.
	// Mapped entries charge only their fixed bookkeeping overhead here
	// (the kernel owns their pages — see SetMapped); their footprint is
	// BytesMapped.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// Store is the shared cache. The zero value is not usable; construct with
// New. All methods are safe for concurrent use.
type Store struct {
	gen      GenFunc // nil: the default, streamed preset pipeline
	maxBytes int64

	mu         sync.Mutex
	sizeOf     SizeOf
	dir        string // disk tier root; "" disables the tier
	mappedMode bool   // zero-copy disk tier (SetMapped)
	entries    map[Key]*entry
	lru        *list.List // front = most recent; values are *entry
	bytes      int64
	// evicting holds entries evicted before they settled (their spill
	// still queued), so Wait covers them and a later miss of the key
	// reads their spill instead of missing it; nil until one exists.
	evicting map[Key]*entry

	hits, misses, generations, evictions         uint64
	diskHits, diskMisses, diskWrites, diskErrors uint64
	mmapHits                                     uint64
	// bytesMapped is atomic, not mu-guarded: mapping releases run from
	// evictLocked (mu held) and from columns finalizers (no lock).
	bytesMapped atomic.Int64
}

// entry is one cached (or in-flight) trace. Its two wait groups give
// waiters singleflight semantics: the first lookup of a key fills it
// (disk load or generation), and concurrent lookups wait on the same
// entry and share the result read-only.
type entry struct {
	key Key
	// view is released once cols and prof, or err, are set. A streamed
	// generation releases it before generating any row; a disk hit and a
	// custom GenFunc release it with every row final.
	view sync.WaitGroup
	// settled is released once every row is final, the entry is
	// admitted and its spill is on disk, or once the fill failed;
	// isSettled (mu-guarded) records that it was.
	settled   sync.WaitGroup
	isSettled bool
	cols      *trace.Columns
	prof      trace.Profile
	// err fails the lookup (set before view is released); rowsErr fails
	// the rows of a streamed generation (set before settled is released;
	// replays waiting on the rows get it from the stream).
	err, rowsErr error

	// mapped is non-nil when cols are zero-copy views of an mmap'd
	// spill; eviction drops the store's reference to the region.
	mapped *mapping

	bytes int64
	elem  *list.Element // LRU position; nil while generating or after eviction
}

// New builds a store bounded to maxBytes of resident trace data
// (maxBytes <= 0 means DefaultMaxBytes) generating through gen
// (nil means the PresetGenColumns pipeline, streamed).
func New(maxBytes int64, gen GenFunc) *Store {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Store{
		gen:      gen,
		maxBytes: maxBytes,
		sizeOf:   ExactSize,
		entries:  map[Key]*entry{},
		lru:      list.New(),
	}
}

// SetSizeOf installs the byte-accounting hook (nil reverts to
// ExactSize). Call before the first GetColumns; existing entries keep
// the charge they were admitted with.
func (s *Store) SetSizeOf(fn SizeOf) {
	if fn == nil {
		fn = ExactSize
	}
	s.mu.Lock()
	s.sizeOf = fn
	s.mu.Unlock()
}

// GetColumns returns the columnar trace for (name, records), generating
// it at most once per residency no matter how many cells ask
// concurrently. A gem5 short name and its full SPEC name are one key
// (trace.CanonicalName), and the columns carry the full name. It
// returns when every row is final and, with a disk tier, the trace's
// spill is on disk; the columns are shared and must be treated as
// read-only.
func (s *Store) GetColumns(name string, records int) (*trace.Columns, trace.Profile, error) {
	e := s.lookup(name, records)
	e.settled.Wait()
	if e.err != nil {
		return nil, trace.Profile{}, e.err
	}
	if e.rowsErr != nil {
		return nil, trace.Profile{}, e.rowsErr
	}
	return e.cols, e.prof, nil
}

// StreamColumns is GetColumns for a replay: it returns as soon as the
// trace's columns exist, while the default generator may still be
// writing their rows on the store's goroutine. sim.RunColumnsCtx and
// RunColumnsMulti wait for each chunk's rows (trace.Columns.Wait), so a
// replay steps chunk k while later rows are generated; a generation
// that fails after the view exists fails those waits instead. Disk hits
// and custom GenFuncs return complete columns, as GetColumns does. Hits
// and misses count as for GetColumns.
func (s *Store) StreamColumns(name string, records int) (*trace.Columns, trace.Profile, error) {
	e := s.lookup(name, records)
	e.view.Wait()
	if e.err != nil {
		return nil, trace.Profile{}, e.err
	}
	return e.cols, e.prof, nil
}

// lookup counts a hit or a miss for the key and returns its entry,
// filling a new one on a miss.
func (s *Store) lookup(name string, records int) *entry {
	key := Key{Name: trace.CanonicalName(name), Records: records}

	s.mu.Lock()
	e, ok := s.entries[key]
	if ok {
		s.hits++
		if e.elem != nil {
			s.lru.MoveToFront(e.elem)
		}
		s.mu.Unlock()
		return e
	}
	s.misses++
	e = &entry{key: key}
	e.view.Add(1)
	e.settled.Add(1)
	s.entries[key] = e
	prev := s.evicting[key]
	s.mu.Unlock()

	if prev != nil {
		// An evicted copy of the key is still spilling: let it land, so
		// the disk probe below finds it as it would have without the
		// background writer.
		prev.settled.Wait()
	}
	s.fill(e)
	return e
}

// fill materializes a new entry: disk tier first (when configured),
// then the generator. The disk probe runs on the caller's goroutine;
// generation runs on a goroutine of the store's, which admits the entry
// and queues its spill when the last row lands.
func (s *Store) fill(e *entry) {
	name, records := e.key.Name, e.key.Records
	if s.Dir() != "" {
		if cols, m, ok := s.tryDiskLoad(e.key); ok {
			if prof, perr := PresetProfile(name, records); perr == nil {
				e.cols, e.prof, e.mapped = cols, prof, m
				s.mu.Lock()
				s.diskHits++
				if m != nil {
					s.mmapHits++
				}
				s.mu.Unlock()
				e.view.Done()
				s.admit(e, false)
				s.settle(e)
				return
			}
			// A spill whose profile cannot be re-derived (a foreign file
			// squatting on a name the preset table does not know) is
			// useless: fall through, and let generation fail the same way.
			if m != nil {
				m.release() // store's reference; the finalizer drops the other
			}
			s.mu.Lock()
			s.diskMisses++
			s.mu.Unlock()
		}
	}
	if s.gen != nil {
		go func() {
			cols, prof, err := s.gen(name, records)
			if err != nil {
				e.err = err
				e.view.Done()
				s.fail(e)
				return
			}
			e.cols, e.prof = cols, prof
			e.view.Done()
			s.complete(e)
		}()
		return
	}
	prof, fill, err := presetSource(name, records)
	if err != nil {
		e.err = err
		e.view.Done()
		s.fail(e)
		return
	}
	st := trace.NewStream(prof.Name, prof.Records)
	e.cols, e.prof = st.Columns(), prof
	e.view.Done()
	go func() {
		if err := fill(st); err != nil {
			st.Fail(err)
			e.rowsErr = err
			s.fail(e)
			return
		}
		s.complete(e)
	}()
}

// complete admits a generated entry whose rows are all final and queues
// its spill, which settles the entry once it is on disk.
func (s *Store) complete(e *entry) {
	s.admit(e, true)
	if s.Dir() != "" {
		s.spill(e)
	} else {
		s.settle(e)
	}
}

// fail drops an entry whose generation failed. Failed generation is not
// cached: waiters on this entry see the error, the next lookup retries
// with a fresh entry.
func (s *Store) fail(e *entry) {
	s.mu.Lock()
	if s.entries[e.key] == e {
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
	s.settle(e)
}

// settle marks an entry's generation and spill finished.
func (s *Store) settle(e *entry) {
	s.mu.Lock()
	e.isSettled = true
	if s.evicting[e.key] == e {
		delete(s.evicting, e.key)
	}
	s.mu.Unlock()
	e.settled.Done()
}

// Wait blocks until every generation the store started and every spill
// it queued before the call have finished: after it returns, Stats
// counts them and their files are on disk. harness.RunAll calls it
// before it returns, and a fleet worker before it answers a chunk.
func (s *Store) Wait() {
	var pending []*entry
	s.mu.Lock()
	for _, e := range s.entries {
		if !e.isSettled {
			pending = append(pending, e)
		}
	}
	for _, e := range s.evicting {
		pending = append(pending, e)
	}
	s.mu.Unlock()
	for _, e := range pending {
		e.settled.Wait()
	}
}

// admit charges a filled entry against the budget and inserts it at the
// front of the LRU.
func (s *Store) admit(e *entry, generated bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if generated {
		s.generations++
	}
	e.bytes = s.chargeLocked(e)
	s.bytes += e.bytes
	e.elem = s.lru.PushFront(e)
	s.evictLocked()
}

// chargeLocked is the entry's charge against the in-memory budget. A
// mapped entry's column bytes live in the kernel page cache, already
// bounded by the files on disk — charging them again here would
// double-count and evict the cheapest entries first — so it pays only
// the fixed overhead.
func (s *Store) chargeLocked(e *entry) int64 {
	if e.mapped == nil {
		return s.sizeOf(e.cols)
	}
	return entryOverheadBytes
}

// evictLocked drops least-recently-used entries until the store fits its
// budget. An entry larger than the whole budget is evicted immediately
// after insertion; its caller already holds the pointers it needs.
func (s *Store) evictLocked() {
	for s.bytes > s.maxBytes {
		back := s.lru.Back()
		if back == nil {
			return
		}
		victim := back.Value.(*entry)
		s.lru.Remove(back)
		victim.elem = nil
		delete(s.entries, victim.key)
		if !victim.isSettled {
			if s.evicting == nil {
				s.evicting = map[Key]*entry{}
			}
			s.evicting[victim.key] = victim
		}
		s.bytes -= victim.bytes
		s.evictions++
		if m := victim.mapped; m != nil {
			// Drop the store's reference to the mapped region. Readers
			// still holding the columns keep it alive through the
			// finalizer reference; the munmap happens only after both
			// are gone, so eviction never invalidates a view in use.
			victim.mapped = nil
			m.release()
		}
	}
}

// Len reports how many traces are resident.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Stats snapshots the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:        s.hits,
		Misses:      s.misses,
		Generations: s.generations,
		Evictions:   s.evictions,
		DiskHits:    s.diskHits,
		DiskMisses:  s.diskMisses,
		DiskWrites:  s.diskWrites,
		DiskErrors:  s.diskErrors,
		MmapHits:    s.mmapHits,
		BytesMapped: s.bytesMapped.Load(),
		Bytes:       s.bytes,
		MaxBytes:    s.maxBytes,
	}
}
