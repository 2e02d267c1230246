package harness

// Backend abstraction: Map no longer owns a goroutine pool directly —
// it describes each cell as a CellSpec and hands batches to a Backend.
// LocalBackend is the original in-process pool behind the interface;
// ExecBackend (exec.go) ships specs to subprocess workers over a
// length-prefixed JSON protocol; MultiBackend routes across several
// backends with retry/requeue. Because a cell is a pure function of
// (scenario, params, scope, shard, root seed), results are bit-identical
// regardless of which backend ran which cell — Map merges everything
// back into shard order. See docs/ARCHITECTURE.md "Distributed cells".

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cellFunc is the type-erased in-process form of a Map cell function.
type cellFunc func(ctx context.Context, shard int, seed uint64) (any, error)

// CellSpec identifies one executable cell. The exported fields address
// the cell from any process: a worker that knows only the spec can
// re-derive the cell's inputs (scenario registry lookup + ShardSeed) and
// produce the same result the coordinator would have.
type CellSpec struct {
	// Scenario names the registered scenario whose Run decomposes into
	// this cell's scope. Empty when Map runs outside RunAll; such specs
	// are executable only by in-process backends (the fn field).
	Scenario string `json:"scenario,omitempty"`
	// Params are the merged parameters the scenario Run received.
	Params Params `json:"params"`
	// Scope is the scenario-local cell-space name passed to Map.
	Scope string `json:"scope"`
	// Shard is the cell's dense index within the scope.
	Shard int `json:"shard"`
	// Seed is the derived per-cell seed, ShardSeed(RootSeed, Scope, Shard).
	Seed uint64 `json:"seed"`
	// RootSeed is the pool's root seed, from which workers re-derive Seed.
	RootSeed uint64 `json:"root_seed"`
	// Locality names the warm artifact (trace columns, snapshots) the
	// cell replays — "workload@records" for one trace, "a+b@records"
	// for an SMT pair (see PairLocality), empty when unlabeled. Pure
	// scheduling metadata: wire backends never put two keys in one
	// chunk (exec ships a key's cells as one chunk, remote routes them
	// to the worker that last held the artifact and names upcoming keys
	// in prefetch hints); results never depend on it.
	Locality string `json:"locality,omitempty"`

	// fn is the in-process cell function. It never crosses the wire;
	// remote workers reconstruct the cell from the exported fields.
	fn cellFunc
}

// CellResult is the outcome of one cell. In-process backends carry the
// value as a live Go value; wire backends carry it as JSON (the encoding
// round-trips float64/uint64 exactly, so both transports yield identical
// results).
type CellResult struct {
	Shard int `json:"shard"`
	// Value is the wire encoding of the cell's result.
	Value json.RawMessage `json:"value,omitempty"`
	// Err is the wire encoding of the cell's error.
	Err string `json:"err,omitempty"`
	// Canceled marks wire errors that were context cancellations, so the
	// coordinator's collateral-error logic still recognizes them.
	Canceled bool `json:"canceled,omitempty"`
	// ElapsedUS is the cell's wall-clock time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`

	value    any   // in-process value; used when hasValue is set
	hasValue bool  // distinguishes a live value from a wire Value
	err      error // in-process error; takes precedence over Err
}

// CellErr returns the cell's error in its most faithful available form:
// the live error for in-process results, a wireError (which preserves
// errors.Is(err, context.Canceled)) for wire results, nil otherwise.
func (r *CellResult) CellErr() error {
	if r.err != nil {
		return r.err
	}
	if r.Err != "" {
		return &wireError{msg: r.Err, canceled: r.Canceled}
	}
	return nil
}

// encodeWire converts an in-process result into its wire form, JSON-
// encoding the live value and stringifying the live error. Workers call
// it before results leave the process.
func (r *CellResult) encodeWire() {
	if r.err != nil {
		r.Err = r.err.Error()
		r.Canceled = errors.Is(r.err, context.Canceled)
		r.err = nil
	} else if r.hasValue {
		b, err := json.Marshal(r.value)
		if err != nil {
			r.Err = fmt.Sprintf("unencodable cell result %T: %v", r.value, err)
		} else {
			r.Value = b
		}
	}
	r.value, r.hasValue = nil, false
}

// wireError is a cell error reconstituted from its wire form.
type wireError struct {
	msg      string
	canceled bool
}

func (e *wireError) Error() string { return e.msg }

// Is lets errors.Is(err, context.Canceled) see through the wire encoding.
func (e *wireError) Is(target error) bool {
	return e.canceled && target == context.Canceled
}

// decodeInto places a result's value into dst, preferring the live value.
func decodeInto[T any](r *CellResult, dst *T) error {
	if r.hasValue {
		v, ok := r.value.(T)
		if !ok {
			return fmt.Errorf("cell result is %T, want %T", r.value, *dst)
		}
		*dst = v
		return nil
	}
	if len(r.Value) == 0 {
		return errors.New("cell result carries no value")
	}
	return json.Unmarshal(r.Value, dst)
}

// ErrPermanent marks batch-level errors that are deterministic
// properties of the cells themselves — a scenario whose decomposition
// disagrees with the coordinator's, unencodable params — rather than of
// the transport or the worker that ran them. Routers must not requeue a
// batch that failed permanently: every backend would fail it the same
// way, so retrying only multiplies the failure across the fleet.
// Capability mismatches (a wire backend refusing anonymous cells, a
// worker missing a scenario registration) are NOT permanent — a
// differently-capable backend may still execute the batch.
var ErrPermanent = errors.New("harness: permanent batch failure")

// Permanent wraps err so errors.Is(err, ErrPermanent) reports true while
// the original error text and chain stay visible.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

func (e *permanentError) Unwrap() error { return e.err }

// Is lets errors.Is see the permanence marker without a sentinel chain.
func (e *permanentError) Is(target error) bool { return target == ErrPermanent }

// Backend executes batches of cells. Run returns one CellResult per spec
// (any order; Map merges by shard). Per-cell failures are reported inside
// the results; a non-nil error means the batch as a whole could not be
// executed (transport failure, dead worker) and is what MultiBackend
// retries on another backend — unless it is marked Permanent, in which
// case retrying is pointless and routers fail fast. If any cell fails,
// Run may stop early and return results only for the cells it attempted.
type Backend interface {
	// Name labels the backend in stats and observer cells.
	Name() string
	// Run executes the batch.
	Run(ctx context.Context, specs []CellSpec) ([]CellResult, error)
	// Close releases backend resources (subprocesses, connections).
	Close() error
}

// BackendStats is one backend's run accounting, reported in the suite
// JSON document.
type BackendStats struct {
	Backend string `json:"backend"`
	// Cells is how many cells the backend completed (including failed).
	Cells uint64 `json:"cells"`
	// Retries is how many cells were requeued after a failure: onto
	// another backend when this backend failed a batch (MultiBackend), or
	// onto another worker of the same fleet (RemoteBackend).
	Retries uint64 `json:"retries"`
	// WallMS is the cumulative wall-clock time spent inside Run.
	WallMS int64 `json:"wall_ms"`
	// Joins/Leaves count fleet membership changes over the run; only a
	// RemoteBackend, whose workers come and go, reports them.
	Joins  uint64 `json:"joins,omitempty"`
	Leaves uint64 `json:"leaves,omitempty"`
	// WireJSONBytes/WireBinaryBytes count frame payload bytes moved over
	// the backend's wire (both directions, handshakes included) per
	// codec; only wire backends (exec, remote) report them. A mixed
	// fleet — some workers negotiated the binary codec, some fell back
	// to JSON — reports both.
	WireJSONBytes   uint64 `json:"wire_json_bytes,omitempty"`
	WireBinaryBytes uint64 `json:"wire_binary_bytes,omitempty"`
	// Workers itemizes a RemoteBackend's fleet, one entry per worker that
	// ever joined (in join order, departed workers included).
	Workers []WorkerStats `json:"workers,omitempty"`
}

// WorkerStats is one fleet worker's accounting inside BackendStats.
type WorkerStats struct {
	// Worker is the worker's self-reported name suffixed with its join
	// index, unique within the fleet.
	Worker string `json:"worker"`
	// Cells is how many of this worker's cell results were accepted.
	Cells uint64 `json:"cells"`
	// Steals counts speculative chunk re-executions by this worker that
	// beat the original straggler to at least one cell.
	Steals uint64 `json:"steals,omitempty"`
	// Speculative counts cells this worker executed whose results were
	// discarded because another copy had already been accepted.
	Speculative uint64 `json:"speculative,omitempty"`
	// AffinityHits/AffinityMisses count non-speculative chunk dispatches
	// with a locality key that did (hit) or did not (miss) land on the
	// key's preferred worker — lastServed if alive, else the rendezvous
	// choice. Misses are the load-aware fallback keeping idle workers
	// fed; chunks without a locality key count as neither.
	AffinityHits   uint64 `json:"affinity_hits,omitempty"`
	AffinityMisses uint64 `json:"affinity_misses,omitempty"`
}

// StatsReporter is implemented by backends that track BackendStats;
// MultiBackend flattens its children's reports.
type StatsReporter interface {
	BackendStats() []BackendStats
}

// cellNotify is the pool-side completion callback: the observer-facing
// Cell plus the spec and result that feed the pool's Sink (run
// journal). Pool.complete implements it.
type cellNotify func(c Cell, spec CellSpec, res CellResult)

// cellSink is implemented by backends that can stream completed cells to
// the pool's observer and sink; Pool.SetBackend wires it. A backend must
// not report cells from a batch whose Run returns an error — a router
// will requeue that batch elsewhere, and early reports would
// double-count the cells in Pool.Cells().
type cellSink interface {
	setSink(cellNotify)
}

// LocalBackend is the in-process goroutine pool — the execution engine
// Map used directly before backends existed, now behind the interface.
// It requires in-process specs (fn set); it never looks at the registry.
type LocalBackend struct {
	workers int
	sink    atomic.Pointer[cellNotify]
	cells   atomic.Uint64
	wallNS  atomic.Int64
}

// NewLocalBackend returns a backend running up to workers cells
// concurrently (<= 0 means GOMAXPROCS).
func NewLocalBackend(workers int) *LocalBackend {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &LocalBackend{workers: workers}
}

// Name implements Backend.
func (b *LocalBackend) Name() string { return "local" }

// Close implements Backend; a LocalBackend holds no resources.
func (b *LocalBackend) Close() error { return nil }

func (b *LocalBackend) setSink(fn cellNotify) { b.sink.Store(&fn) }

func (b *LocalBackend) notify(c Cell, spec CellSpec, res CellResult) {
	if fn := b.sink.Load(); fn != nil && *fn != nil {
		(*fn)(c, spec, res)
	}
}

// BackendStats implements StatsReporter.
func (b *LocalBackend) BackendStats() []BackendStats {
	return []BackendStats{{
		Backend: b.Name(),
		Cells:   b.cells.Load(),
		WallMS:  time.Duration(b.wallNS.Load()).Milliseconds(),
	}}
}

// Run implements Backend: specs execute on up to b.workers goroutines.
// The first cell error stops scheduling of further cells; results for
// unattempted cells are omitted.
func (b *LocalBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.wallNS.Add(int64(time.Since(start))) }()

	results := make([]CellResult, len(specs))
	attempted := make([]bool, len(specs))
	runCell := func(ctx context.Context, i int) error {
		s := specs[i]
		if s.fn == nil {
			// Recorded as the cell's result (not just returned) so the
			// diagnosis reaches Map instead of decaying into a generic
			// missing-shard error.
			err := fmt.Errorf("harness: local backend got a wire-only spec for %s/%d (no cell function)", s.Scope, s.Shard)
			results[i] = CellResult{Shard: s.Shard, err: err}
			attempted[i] = true
			return err
		}
		cellStart := time.Now()
		v, err := s.fn(ctx, s.Shard, s.Seed)
		elapsed := time.Since(cellStart)
		results[i] = CellResult{
			Shard: s.Shard, value: v, hasValue: err == nil, err: err,
			ElapsedUS: elapsed.Microseconds(),
		}
		attempted[i] = true
		b.cells.Add(1)
		b.notify(Cell{Backend: b.Name(), Scope: s.Scope, Shard: s.Shard, Seed: s.Seed, Elapsed: elapsed, Err: err}, s, results[i])
		return err
	}

	workers := b.workers
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers <= 1 {
		for i := range specs {
			if err := ctx.Err(); err != nil {
				return compact(results, attempted), nil
			}
			if runCell(ctx, i) != nil {
				break
			}
		}
		return compact(results, attempted), nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range specs {
			select {
			case jobs <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if ctx.Err() != nil {
					return
				}
				if runCell(ctx, i) != nil {
					cancel() // stop handing out further cells
				}
			}
		}()
	}
	wg.Wait()
	return compact(results, attempted), nil
}

// compact drops the slots of unattempted cells.
func compact(results []CellResult, attempted []bool) []CellResult {
	out := results[:0]
	for i := range results {
		if attempted[i] {
			out = append(out, results[i])
		}
	}
	return out
}

// WeightedBackend pairs a backend with its share of the work.
type WeightedBackend struct {
	Backend Backend
	// Weight is the backend's relative share of batch chunks (<= 0 is
	// treated as 1).
	Weight int
}

// MultiBackend fans batches out across several backends by weighted
// round-robin, requeueing a chunk onto the next backend when one fails
// it at the transport level (Permanent failures propagate immediately
// instead — see ErrPermanent). Results merge back into shard order, so
// output is bit-identical regardless of which backend ran which cell.
type MultiBackend struct {
	entries []WeightedBackend
	ring    []int // entry indices expanded by weight
	next    atomic.Uint64
	retries []atomic.Uint64 // per entry: cells requeued after it failed
}

// NewMultiBackend builds the router; it panics on an empty entry list so
// misconfiguration surfaces at construction.
func NewMultiBackend(entries ...WeightedBackend) *MultiBackend {
	if len(entries) == 0 {
		panic("harness: NewMultiBackend with no backends")
	}
	m := &MultiBackend{entries: entries, retries: make([]atomic.Uint64, len(entries))}
	for i, e := range entries {
		w := e.Weight
		if w <= 0 {
			w = 1
		}
		for j := 0; j < w; j++ {
			m.ring = append(m.ring, i)
		}
	}
	return m
}

// Name implements Backend.
func (m *MultiBackend) Name() string { return "multi" }

// Close closes every child backend, returning the first error.
func (m *MultiBackend) Close() error {
	var first error
	for _, e := range m.entries {
		if err := e.Backend.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// setSink forwards the pool's observer sink to every child that streams.
func (m *MultiBackend) setSink(fn cellNotify) {
	for _, e := range m.entries {
		if s, ok := e.Backend.(cellSink); ok {
			s.setSink(fn)
		}
	}
}

// BackendStats flattens the children's reports, attributing each child's
// requeue count to the backend that failed.
func (m *MultiBackend) BackendStats() []BackendStats {
	var out []BackendStats
	for i, e := range m.entries {
		var stats []BackendStats
		if sr, ok := e.Backend.(StatsReporter); ok {
			stats = sr.BackendStats()
		} else {
			stats = []BackendStats{{Backend: e.Backend.Name()}}
		}
		if len(stats) > 0 {
			stats[0].Retries += m.retries[i].Load()
		}
		out = append(out, stats...)
	}
	return out
}

// multiChunkCells bounds chunk size so every backend in the ring sees
// work even on small batches.
const multiChunkTarget = 4

// Run implements Backend: the batch splits into chunks assigned to
// backends by weighted round-robin; a chunk whose backend fails is
// requeued onto the next backend in the ring until one succeeds or all
// have failed it.
func (m *MultiBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	if len(specs) == 0 {
		return nil, nil
	}

	chunkSize := (len(specs) + len(m.ring)*multiChunkTarget - 1) / (len(m.ring) * multiChunkTarget)
	if chunkSize < 1 {
		chunkSize = 1
	}
	type chunk struct {
		specs []CellSpec
		entry int // first entry index to try
	}
	var chunks []chunk
	for off := 0; off < len(specs); off += chunkSize {
		end := off + chunkSize
		if end > len(specs) {
			end = len(specs)
		}
		slot := m.next.Add(1) - 1
		chunks = append(chunks, chunk{
			specs: specs[off:end],
			entry: m.ring[slot%uint64(len(m.ring))],
		})
	}

	var (
		mu      sync.Mutex
		merged  []CellResult
		firstEr error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	for _, c := range chunks {
		wg.Add(1)
		go func(c chunk) {
			defer wg.Done()
			var lastErr error
			for attempt := 0; attempt < len(m.entries); attempt++ {
				if ctx.Err() != nil {
					lastErr = ctx.Err()
					break
				}
				idx := (c.entry + attempt) % len(m.entries)
				res, err := m.entries[idx].Backend.Run(ctx, c.specs)
				if err == nil {
					mu.Lock()
					merged = append(merged, res...)
					mu.Unlock()
					return
				}
				lastErr = fmt.Errorf("backend %s: %w", m.entries[idx].Backend.Name(), err)
				if errors.Is(err, ErrPermanent) {
					// A deterministic cell/scenario failure would repeat
					// identically on every backend: propagate immediately
					// instead of retrying it across the whole ring.
					break
				}
				// Requeue: charge the failed backend for every cell that
				// now has to run elsewhere.
				m.retries[idx].Add(uint64(len(c.specs)))
			}
			mu.Lock()
			if firstEr == nil {
				firstEr = lastErr
			}
			mu.Unlock()
			cancel()
		}(c)
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	sortResultsByShard(merged)
	return merged, nil
}

// sortResultsByShard orders results canonically. The input is whole
// chunks concatenated in completion order — sorted within a chunk but
// arbitrarily interleaved across chunks — so this must not assume
// nearly-sorted data.
func sortResultsByShard(rs []CellResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Shard < rs[j].Shard })
}

// chunksPerWorker is how many size-cut chunks per worker a wire
// coordinator splits a batch into: small enough that fast workers pull
// more of them and late joiners find work, large enough that the
// per-frame cost stays negligible next to the cells.
const chunksPerWorker = 4

// localityChunks cuts a batch into the dispatch chunks of a wire
// coordinator with the given worker count. Chunks never span two
// locality keys, and keys come out in first-appearance order (specs
// arrive in shard order, so the cut is stable). Unlabeled cells are cut
// into chunks of about len(specs)/(workers*chunksPerWorker) cells. A
// labeled group is cut the same way when splitGroups is set
// (RemoteBackend: small chunks keep steals and late joiners effective,
// and affinity routes a key's chunks to one home); otherwise it ships
// whole (ExecBackend: one worker builds the group's traces, timelines
// and baselines once).
func localityChunks(specs []CellSpec, workers int, splitGroups bool) [][]CellSpec {
	size := max(1, (len(specs)+workers*chunksPerWorker-1)/(workers*chunksPerWorker))
	order := make([]string, 0, 8)
	byLoc := map[string][]CellSpec{}
	for _, s := range specs {
		if _, ok := byLoc[s.Locality]; !ok {
			order = append(order, s.Locality)
		}
		byLoc[s.Locality] = append(byLoc[s.Locality], s)
	}
	var chunks [][]CellSpec
	for _, loc := range order {
		group := byLoc[loc]
		step := size
		if loc != "" && !splitGroups {
			step = len(group)
		}
		for off := 0; off < len(group); off += step {
			chunks = append(chunks, group[off:min(off+step, len(group))])
		}
	}
	return chunks
}
