package harness

// Backends: mapCells describes each cell as a CellSpec and hands
// batches to a Backend. LocalBackend runs them on in-process goroutines;
// RemoteBackend (remote.go) schedules them across a fleet of worker
// processes speaking the length-prefixed fleet protocol, whose members
// dial in over TCP or, under ExecBackend (exec.go), are subprocesses
// spawned on stdio. Because a cell is a pure function of (scenario,
// params, scope, shard, root seed), results are bit-identical
// regardless of which backend ran which cell — mapCells merges
// everything back into shard order. See docs/ARCHITECTURE.md "How a cell flows
// through a backend".

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

// cellFunc is the type-erased in-process form of a Space cell function.
type cellFunc func(ctx context.Context, shard int, seed uint64) (any, error)

// CellSpec identifies one executable cell. The exported fields address
// the cell from any process: a worker that knows only the spec can
// re-derive the cell's inputs (the scenario's declared Space + ShardSeed)
// and produce the same result the coordinator would have.
type CellSpec struct {
	// Scenario names the registered scenario whose Space declares this
	// cell's scope. Empty for cells mapped without a scenario; such specs
	// are executable only by in-process backends (the fn field).
	Scenario string `json:"scenario,omitempty"`
	// Params are the merged parameters the scenario's Space was built from.
	Params Params `json:"params"`
	// Scope is the scenario-local cell-space name (Space.Scope).
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
	// scheduling metadata: the fleet ships a key's cells as one chunk
	// and routes it to the worker that last held the artifact; results
	// never depend on it.
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
// properties of the cells themselves — a chunk mixing two batches, cells
// outside the scenario's declared space, unencodable params — rather
// than of the transport or the worker that ran them. The fleet must not requeue
// a chunk that failed permanently: every worker would fail it the same
// way, so retrying only multiplies the failure across the fleet.
// Capability mismatches (a worker refusing anonymous cells or missing a
// scenario registration) are NOT permanent — a differently-capable
// worker may still execute the chunk.
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
// (any order; mapCells merges by shard). Per-cell failures are reported inside
// the results; a non-nil error means the batch as a whole could not be
// executed (no live workers, a Permanent worker error, a canceled
// context). If any cell fails, Run may stop early and return results
// only for the cells it attempted.
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
	// Retries is how many cells a fleet requeued onto another worker
	// after a worker failed or dropped them.
	Retries uint64 `json:"retries"`
	// WallMS is the cumulative wall-clock time spent inside Run.
	WallMS int64 `json:"wall_ms"`
	// Joins/Leaves count fleet membership changes over the run; only
	// the fleet backends (exec, remote) report them.
	Joins  uint64 `json:"joins,omitempty"`
	Leaves uint64 `json:"leaves,omitempty"`
	// WireJSONBytes/WireBinaryBytes count frame payload bytes moved over
	// a fleet's wire in both directions: the JSON hello/welcome
	// handshakes and the bin1 work and results frames after them.
	WireJSONBytes   uint64 `json:"wire_json_bytes,omitempty"`
	WireBinaryBytes uint64 `json:"wire_binary_bytes,omitempty"`
	// Workers itemizes a fleet, one entry per worker that ever joined
	// (in join order, departed workers included).
	Workers []WorkerStats `json:"workers,omitempty"`
}

// WorkerStats is one fleet worker's accounting inside BackendStats.
type WorkerStats struct {
	// Worker is the worker's self-reported name suffixed with its join
	// index, unique within the fleet.
	Worker string `json:"worker"`
	// Cells is how many of this worker's cell results were accepted.
	Cells uint64 `json:"cells"`
	// AffinityHits/AffinityMisses count chunk dispatches with a
	// locality key that did (hit) or did not (miss) land on the
	// key's preferred worker — lastServed if alive, else the rendezvous
	// choice. Misses are the load-aware fallback keeping idle workers
	// fed; chunks without a locality key count as neither.
	AffinityHits   uint64 `json:"affinity_hits,omitempty"`
	AffinityMisses uint64 `json:"affinity_misses,omitempty"`
}

// StatsReporter is implemented by backends that track BackendStats.
type StatsReporter interface {
	BackendStats() []BackendStats
}

// poolMember is implemented by backends that report to the pool they
// are installed in; Pool.SetBackend hands the pool over. Completed cells
// go to Pool.complete — a fleet reports a batch's cells only once its
// Run succeeds, since cells from a failed batch would otherwise reach
// the observer and sink without reaching the output — and a fleet
// welcomes its workers with the pool's Settings.
type poolMember interface {
	setPool(*Pool)
}

// LocalBackend runs cells on in-process goroutines; it is a pool's
// default backend. It requires in-process specs (fn set); it never
// looks at the registry.
type LocalBackend struct {
	workers int
	pool    atomic.Pointer[Pool]
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

func (b *LocalBackend) setPool(p *Pool) { b.pool.Store(p) }

func (b *LocalBackend) notify(c Cell, spec CellSpec, res CellResult) {
	if p := b.pool.Load(); p != nil {
		p.complete(c, spec, res)
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
			// diagnosis reaches mapCells instead of decaying into a generic
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

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// firstFailed is the index of the cell whose failure canceled ctx.
	// Cells are handed out in index order, so every lower cell was drawn
	// before it; a worker still runs those, which makes the lowest failing
	// cell mapCells reports independent of worker timing.
	var firstFailed atomic.Int64
	firstFailed.Store(int64(len(specs)))

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
				if ctx.Err() != nil && (parent.Err() != nil || int64(i) > firstFailed.Load()) {
					return
				}
				if runCell(ctx, i) != nil {
					firstFailed.CompareAndSwap(int64(len(specs)), int64(i))
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

// sortResultsByShard orders results canonically. The input is whole
// chunks concatenated in completion order — sorted within a chunk but
// arbitrarily interleaved across chunks — so this must not assume
// nearly-sorted data.
func sortResultsByShard(rs []CellResult) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].Shard < rs[j].Shard })
}

// chunksPerWorker is how many size-cut chunks per worker the fleet
// splits a batch's unlabeled cells into: small enough that fast workers
// pull more of them and late joiners find work, large enough that the
// per-frame cost stays negligible next to the cells.
const chunksPerWorker = 4

// localityChunks cuts a batch into the fleet's dispatch chunks for the
// given worker count. Each locality group ships whole, so one worker
// builds the traces, timelines and baselines its cells share, once.
// Keys come out in first-appearance order (specs arrive in shard order,
// so the cut is stable). Unlabeled cells are cut into chunks of about
// len(specs)/(workers*chunksPerWorker) cells.
func localityChunks(specs []CellSpec, workers int) [][]CellSpec {
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
		if loc != "" {
			step = len(group)
		}
		for off := 0; off < len(group); off += step {
			chunks = append(chunks, group[off:min(off+step, len(group))])
		}
	}
	return chunks
}
