// Pool, mapCells, and the seeding scheme: the execution core of the
// package (see doc.go for the package overview and docs/ARCHITECTURE.md
// for the full picture).

package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"stbpu/internal/rng"
	"stbpu/internal/snapstore"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

// Params is the union of knobs scenarios accept. Zero values mean "use the
// scenario default" (see Merged); scenarios read only the fields they
// document.
type Params struct {
	// Records is the per-workload trace length.
	Records int `json:"records,omitempty"`
	// MaxWorkloads caps the workload list (0 = all).
	MaxWorkloads int `json:"max_workloads,omitempty"`
	// MaxPairs caps the SMT pair list (0 = all).
	MaxPairs int `json:"max_pairs,omitempty"`
	// Trials is the per-cell repetition count for randomized measurements.
	Trials int `json:"trials,omitempty"`
	// Budget bounds attack-driver scans.
	Budget int `json:"budget,omitempty"`
	// Bits is the covert-channel message length.
	Bits int `json:"bits,omitempty"`
	// R is the attack-difficulty factor for threshold derivation.
	R float64 `json:"r,omitempty"`
	// Sweep is a scenario-specific axis (r values, trace lengths, ...).
	Sweep []float64 `json:"sweep,omitempty"`
	// Workload names a single-workload scenario's trace preset.
	Workload string `json:"workload,omitempty"`
	// WorkloadSpec names a registered spec-driven workload
	// ("spec:<name>@<hash>") for the workloads scenario family; empty
	// runs the built-in spec fixtures.
	WorkloadSpec string `json:"workload_spec,omitempty"`
}

// Merged fills p's zero fields from def and returns the result.
func (p Params) Merged(def Params) Params {
	if p.Records == 0 {
		p.Records = def.Records
	}
	if p.MaxWorkloads == 0 {
		p.MaxWorkloads = def.MaxWorkloads
	}
	if p.MaxPairs == 0 {
		p.MaxPairs = def.MaxPairs
	}
	if p.Trials == 0 {
		p.Trials = def.Trials
	}
	if p.Budget == 0 {
		p.Budget = def.Budget
	}
	if p.Bits == 0 {
		p.Bits = def.Bits
	}
	if p.R == 0 {
		p.R = def.R
	}
	if len(p.Sweep) == 0 {
		p.Sweep = def.Sweep
	}
	if p.Workload == "" {
		p.Workload = def.Workload
	}
	if p.WorkloadSpec == "" {
		p.WorkloadSpec = def.WorkloadSpec
	}
	return p
}

// DefaultRootSeed seeds runs that don't specify one. Any value works; this
// one is fixed so default runs are comparable across machines.
const DefaultRootSeed uint64 = 0x57b9c0ffee

// ShardSeed derives the RNG seed for one cell. It depends only on the root
// seed, the scope name, and the shard index — never on worker count or
// scheduling — so results are reproducible at any parallelism.
func ShardSeed(root uint64, scope string, shard int) uint64 {
	s := root ^ fnv1a(scope)
	rng.SplitMix64(&s)
	s ^= uint64(shard) * 0x9e3779b97f4a7c15
	return rng.SplitMix64(&s)
}

func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Cell is one completed unit of work, streamed to the pool's observer as
// workers finish (completion order, not shard order).
type Cell struct {
	// Backend names the backend that executed the cell.
	Backend string
	// Scope is the scenario-local cell-space name (Space.Scope).
	Scope string
	// Shard is the cell's dense index within the scope.
	Shard int
	// Seed is the derived per-cell RNG seed.
	Seed uint64
	// Elapsed is the cell's wall-clock time.
	Elapsed time.Duration
	// Err is the cell's error, if any.
	Err error
}

// Pool is a sized worker pool with a root seed. It carries no goroutines
// of its own; its backend spins workers up per batch, so an idle Pool
// costs nothing and one Pool can serve many sequential scenarios. It is
// also the one place a run's settings live (see Settings): its toggles,
// its stores' tiers and the workload specs it registered.
type Pool struct {
	workers  int
	rootSeed uint64

	mu       sync.Mutex
	observer func(Cell)
	sink     Sink
	traces   *tracestore.Store
	snaps    *snapstore.Store
	backend  Backend
	// specs are the workload-spec documents Settings.NewPool registered.
	specs []string
	// traceMajor and snapshots toggle grouping and the warm-state
	// snapshot tier (see SetTraceMajor, SetSnapshots).
	traceMajor, snapshots bool
}

// Settings is a run's configuration: the speed settings that must never
// change results — the trace tier, trace-major grouping, the snapshot
// tier — and the workload specs cells resolve by name. Settings.NewPool
// builds a coordinator's pool and every fleet worker's session pool from
// it, and a fleet welcomes each worker with its pool's Settings, so the
// two sides cannot disagree. The JSON names are the welcome frame's.
type Settings struct {
	// TraceDir, when nonempty, is the persistent trace tier: generated
	// traces spill there as STBT files and later runs, and workers
	// sharing the directory, decode them instead of regenerating.
	TraceDir string `json:"trace_dir,omitempty"`
	// TraceMajor groups cells that share a computed value (see
	// SetTraceMajor).
	TraceMajor bool `json:"trace_major"`
	// TraceMmap spills traces in the page-aligned STBT v2 layout and maps
	// them read-only instead of decoding (with TraceDir).
	TraceMmap bool `json:"trace_mmap"`
	// Snapshots enables the warm-state snapshot tier (see SetSnapshots).
	Snapshots bool `json:"snapshots"`
	// SnapDir, when nonempty, is the persistent checkpoint tier.
	SnapDir string `json:"snap_dir,omitempty"`
	// WorkloadSpecs are raw JSON workload-spec documents. NewPool
	// registers them, so every process of a run resolves the same spec
	// workload names.
	WorkloadSpecs []string `json:"workload_specs,omitempty"`
}

// NewPool registers s's workload specs and returns a pool configured by
// s, running up to workers cells concurrently (<= 0 means GOMAXPROCS)
// with the given root seed, over a trace store bounded by cacheBytes and
// a checkpoint store bounded by snapBytes (<= 0 means each store's
// default budget).
func (s Settings) NewPool(workers int, rootSeed uint64, cacheBytes, snapBytes int64) (*Pool, error) {
	for _, doc := range s.WorkloadSpecs {
		ws, err := spec.Parse([]byte(doc))
		if err != nil {
			return nil, fmt.Errorf("workload spec: %w", err)
		}
		if err := spec.Register(ws); err != nil {
			return nil, fmt.Errorf("workload spec %q: %w", ws.Name, err)
		}
	}
	traces := tracestore.New(cacheBytes, nil)
	traces.SetMapped(s.TraceMmap)
	if err := traces.SetDir(s.TraceDir); err != nil {
		return nil, fmt.Errorf("trace dir %s: %w", s.TraceDir, err)
	}
	snaps := snapstore.New(snapBytes)
	if err := snaps.SetDir(s.SnapDir); err != nil {
		return nil, fmt.Errorf("snap dir %s: %w", s.SnapDir, err)
	}
	p := NewPool(workers, rootSeed)
	p.traces, p.snaps, p.specs = traces, snaps, s.WorkloadSpecs
	p.traceMajor, p.snapshots = s.TraceMajor, s.Snapshots
	return p, nil
}

// Settings reads the pool's configuration back from where it lives: the
// pool's toggles, its stores' tiers and the spec documents NewPool
// registered. A fleet welcomes every worker with it.
func (p *Pool) Settings() Settings {
	traces, snaps := p.Traces(), p.Snaps()
	p.mu.Lock()
	defer p.mu.Unlock()
	return Settings{
		TraceDir: traces.Dir(), TraceMajor: p.traceMajor, TraceMmap: traces.Mapped(),
		Snapshots: p.snapshots, SnapDir: snaps.Dir(), WorkloadSpecs: p.specs,
	}
}

// withRootSeed returns a pool sharing p's configuration and stores under
// another root seed: a fleet worker's session pool serves chunks of any
// run, and space constructors read their seeds from the pool.
func (p *Pool) withRootSeed(rootSeed uint64) *Pool {
	traces, snaps := p.Traces(), p.Snaps()
	p.mu.Lock()
	defer p.mu.Unlock()
	return &Pool{workers: p.workers, rootSeed: rootSeed, traces: traces, snaps: snaps,
		specs: p.specs, traceMajor: p.traceMajor, snapshots: p.snapshots}
}

// SetTraceStore installs the cross-run trace store scenario cells share
// (nil reverts to lazy default creation). Call before running scenarios.
func (p *Pool) SetTraceStore(s *tracestore.Store) {
	p.mu.Lock()
	p.traces = s
	p.mu.Unlock()
}

// Traces returns the pool's shared trace store, lazily creating one with
// the default byte budget. Scenarios fetch workload traces through it so
// one (workload, records) trace is generated once per suite run rather
// than once per scenario; because generation is deterministic, sharing
// cannot perturb results (see tracestore's package comment).
func (p *Pool) Traces() *tracestore.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.traces == nil {
		p.traces = tracestore.New(0, nil)
	}
	return p.traces
}

// waitStores waits for the generations and spills the pool's trace and
// snapshot stores have in flight (tracestore.Store.Wait,
// snapstore.Store.Wait), so what a run reports is on disk and counted.
func (p *Pool) waitStores() {
	p.Traces().Wait()
	p.Snaps().Wait()
}

// SetSnapStore installs the checkpoint store scenario cells share for
// the warm-state snapshot tier (nil reverts to lazy default creation).
// Call before running scenarios.
func (p *Pool) SetSnapStore(s *snapstore.Store) {
	p.mu.Lock()
	p.snaps = s
	p.mu.Unlock()
}

// Snaps returns the pool's shared checkpoint store, lazily creating one
// with the default byte budget. Scenarios capture warm predictor state
// at phase boundaries through it, so a phase measurement restores a
// checkpoint instead of replaying its whole warmup prefix; because
// snapshots are deterministic encodings of deterministic replay, sharing
// cannot perturb results.
func (p *Pool) Snaps() *snapstore.Store {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snaps == nil {
		p.snaps = snapstore.New(0)
	}
	return p.snaps
}

// SetSnapshots toggles the warm-state snapshot tier for scenarios on
// this pool (default on). Off, phase cells fall back to replaying their
// warmup prefix from record zero — which only changes speed, never
// results: the flag exists to pin that equivalence in tests and CI and
// to isolate regressions.
func (p *Pool) SetSnapshots(on bool) {
	p.mu.Lock()
	p.snapshots = on
	p.mu.Unlock()
}

// SnapshotsOn reports whether the warm-state snapshot tier is enabled.
func (p *Pool) SnapshotsOn() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snapshots
}

// NewPool returns a pool running up to workers cells concurrently
// (workers <= 0 means GOMAXPROCS) with the given root seed, grouping and
// the snapshot tier on, and default stores created on first use.
func NewPool(workers int, rootSeed uint64) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, rootSeed: rootSeed, traceMajor: true, snapshots: true}
}

// SetBackend installs the backend RunAll schedules cells through (nil
// reverts to the lazily created LocalBackend) and gives it the pool: it
// streams completed cells to the pool's observer and sink, and a fleet
// welcomes its workers with the pool's Settings.
func (p *Pool) SetBackend(b Backend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m, ok := b.(poolMember); ok {
		m.setPool(p)
	}
	p.backend = b
}

// Backend returns the pool's backend, lazily creating a LocalBackend
// sized to the pool's worker count.
func (p *Pool) Backend() Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backend == nil {
		lb := NewLocalBackend(p.workers)
		lb.setPool(p)
		p.backend = lb
	}
	return p.backend
}

// complete is where backends report finished cells: it feeds the sink
// (wire-encoded) and the observer.
// The sink call — wire encoding plus, for a Journal, a disk append —
// runs outside the pool lock so concurrent workers don't serialize
// behind each other's I/O; sinks synchronize internally. Observer
// calls stay serialized under the pool lock as SetObserver documents.
func (p *Pool) complete(c Cell, spec CellSpec, res CellResult) {
	if sink := p.currentSink(); sink != nil {
		wire := res
		wire.encodeWire() // the copy leaves the backend's live value intact
		sink.CellDone(c, spec, wire)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.observer != nil {
		p.observer(c)
	}
}

// Workers reports the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// RootSeed reports the pool's root seed.
func (p *Pool) RootSeed() uint64 { return p.rootSeed }

// SetObserver installs fn to receive every completed Cell (nil removes
// it). Calls are serialized; fn must not block for long.
func (p *Pool) SetObserver(fn func(Cell)) {
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// SetSink installs s to receive every completed cell with its spec and
// wire-encoded result (nil removes it). Calls are serialized like the
// observer's. A sink that also implements CellLookup (a resumed
// Journal) additionally short-circuits scenario runs: cells it already
// holds are not re-executed.
func (p *Pool) SetSink(s Sink) {
	p.mu.Lock()
	p.sink = s
	p.mu.Unlock()
}

func (p *Pool) currentSink() Sink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sink
}

// mapCells runs the cell space sp of the scenario addressed by
// (scenario, params) through the pool's backend and returns the results
// in shard order; RunAll calls it once per scenario. Each cell receives
// its ShardSeed. The first error (lowest shard index) cancels the
// remaining cells and is returned; a canceled ctx stops workers promptly
// and returns ctx.Err().
//
// With the default LocalBackend the cells run in-process on the pool's
// goroutine workers. With a fleet backend (ExecBackend, RemoteBackend)
// the specs are shipped by (scenario, params, scope, shard, root seed)
// and each worker executes them from its own copy of the scenario's
// Space; the results merge into shard order, so they are bit-identical
// regardless of which worker ran which cell. An empty scenario name
// leaves the cells anonymous: only an in-process backend runs them.
//
// When the pool's sink implements CellLookup (a resumed Journal), cells
// the lookup already holds are not re-executed: their stored values are
// decoded into the output, and their completion is replayed to the
// observer and sink (Backend "journal"). Because cells are pure
// functions of their address, the spliced values are bit-identical to
// re-executing. Only the pending cells are bound, so a group's shared
// value covers just those.
func mapCells[S, T any](ctx context.Context, p *Pool, scenario string, params Params, sp Space[S, T]) ([]T, error) {
	scope, n := sp.Scope, sp.N
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	specs := make([]CellSpec, n)
	for i := range specs {
		specs[i] = CellSpec{
			Scenario: scenario,
			Params:   params,
			Scope:    scope,
			Shard:    i,
			Seed:     ShardSeed(p.rootSeed, scope, i),
			RootSeed: p.rootSeed,
		}
	}

	got := make([]bool, n)
	errs := make([]error, n)
	anyErr := false

	b := p.Backend()
	pending := specs
	if lookup, ok := p.currentSink().(CellLookup); ok && scenario != "" {
		pending = make([]CellSpec, 0, n)
		for _, s := range specs {
			r, done := lookup.LookupCell(s)
			if !done {
				pending = append(pending, s)
				continue
			}
			if err := decodeInto(&r, &out[s.Shard]); err != nil {
				return nil, fmt.Errorf("%s shard %d: journaled cell: %w", scope, s.Shard, err)
			}
			got[s.Shard] = true
			p.complete(Cell{
				Backend: "journal", Scope: s.Scope, Shard: s.Shard, Seed: s.Seed,
				Elapsed: journalElapsed(r.ElapsedUS),
			}, s, r)
		}
	}

	var results []CellResult
	if len(pending) > 0 {
		sp.bind(pending, p.TraceMajor())
		var runErr error
		results, runErr = b.Run(ctx, pending)
		if runErr != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%s: %s backend: %w", scope, b.Name(), runErr)
		}
	}
	for idx := range results {
		r := &results[idx]
		if r.Shard < 0 || r.Shard >= n {
			return nil, fmt.Errorf("%s: %s backend returned out-of-range shard %d", scope, b.Name(), r.Shard)
		}
		if got[r.Shard] {
			return nil, fmt.Errorf("%s: %s backend returned duplicate results for shard %d", scope, b.Name(), r.Shard)
		}
		got[r.Shard] = true
		if err := r.CellErr(); err != nil {
			errs[r.Shard] = err
			anyErr = true
			continue
		}
		if err := decodeInto(r, &out[r.Shard]); err != nil {
			return nil, fmt.Errorf("%s shard %d: %s backend: %w", scope, r.Shard, b.Name(), err)
		}
	}

	if anyErr {
		// Report the lowest-indexed *root-cause* error: once a cell fails
		// the backend cancels its remaining in-flight cells, so lower-
		// indexed cells may abort with context.Canceled — those are
		// collateral, not the cause, as long as the caller's context is
		// still live.
		var collateral error
		collateralShard := -1
		for i, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				if collateral == nil {
					collateral, collateralShard = err, i
				}
				continue
			}
			return nil, fmt.Errorf("%s shard %d: %w", scope, i, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s shard %d: %w", scope, collateralShard, collateral)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("%s: %s backend returned no result for shard %d", scope, b.Name(), i)
		}
	}
	return out, nil
}
