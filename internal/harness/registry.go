package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path"
	"sort"
	"sync"
	"time"
)

// Renderer is implemented by scenario results that can print themselves as
// a text table; CLIs use it to render Report.Result without knowing the
// concrete type.
type Renderer interface {
	Render(w io.Writer)
}

// Scenario is one named, parameterized experiment: a cell space and the
// aggregate over its cells, both from the one function Define takes.
type Scenario struct {
	// Name identifies the scenario in the registry and in run filters.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Defaults fills unset Params fields at run time.
	Defaults Params

	// space, run and decode are Define's: the erased cell space a fleet
	// worker executes, the typed map-and-aggregate RunAll calls (it
	// returns the result and the number of cells mapped), and the
	// result's decoder.
	space  func(p Params, pool *Pool) (Space[any, any], error)
	run    func(ctx context.Context, p Params, pool *Pool) (any, int, error)
	decode func(raw json.RawMessage) (any, error)
}

// Define builds a scenario from build, which returns the scenario's
// typed cell Space under the merged params and the aggregate over its
// cells in shard order. RunAll maps that space under the scenario's
// (name, params) address and aggregates; a fleet worker builds the same
// space for its chunk and never calls the aggregate. A scenario that
// computes no cells returns an empty Space. The result type R must
// survive a JSON round-trip: Decode restores it from a suite document.
func Define[S, T, R any](name, description string, defaults Params,
	build func(p Params, pool *Pool) (Space[S, T], func(cells []T) (R, error), error)) Scenario {
	return Scenario{
		Name: name, Description: description, Defaults: defaults,
		space: func(p Params, pool *Pool) (Space[any, any], error) {
			sp, _, err := build(p, pool)
			return sp.erase(), err
		},
		run: func(ctx context.Context, p Params, pool *Pool) (any, int, error) {
			sp, aggregate, err := build(p, pool)
			if err != nil {
				return nil, 0, err
			}
			cells, err := mapCells(ctx, pool, name, p, sp)
			if err != nil {
				return nil, 0, err
			}
			res, err := aggregate(cells)
			return res, len(cells), err
		},
		decode: func(raw json.RawMessage) (any, error) {
			var r R
			err := json.Unmarshal(raw, &r)
			return r, err
		},
	}
}

// Space builds the scenario's cell space under merged params p, as a
// fleet worker does for a chunk, with its cell types erased: the worker
// only executes cells and ships their results as JSON.
func (s Scenario) Space(p Params, pool *Pool) (Space[any, any], error) {
	return s.space(p, pool)
}

// Decode unmarshals a result of the scenario from its JSON into the
// type its aggregate returns.
func (s Scenario) Decode(raw json.RawMessage) (any, error) {
	return s.decode(raw)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario built by Define; it panics on empty or
// duplicate names so registration bugs surface at init time.
func Register(s Scenario) {
	if s.Name == "" || s.run == nil {
		panic("harness: Register with an empty name or a Scenario not built by Define")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("harness: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the named scenario.
func Get(name string) (Scenario, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registry[name]
	return s, ok
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Match resolves filter patterns (path.Match globs, e.g. "fig*") into
// scenarios, sorted by name. Empty filters select everything. A pattern
// matching nothing is an error — it is almost always a typo.
func Match(filters []string) ([]Scenario, error) {
	if len(filters) == 0 {
		return All(), nil
	}
	seen := map[string]bool{}
	var out []Scenario
	for _, f := range filters {
		matched := false
		for _, s := range All() {
			ok, err := path.Match(f, s.Name)
			if err != nil {
				return nil, fmt.Errorf("harness: bad filter %q: %w", f, err)
			}
			if ok {
				matched = true
				if !seen[s.Name] {
					seen[s.Name] = true
					out = append(out, s)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("harness: no scenario matches %q", f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Report is one scenario's run record — everything needed to reproduce
// and compare it.
type Report struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Workers  int    `json:"workers"`
	Params   Params `json:"params"`
	// Cells is how many cells the run mapped, journal-restored cells
	// included.
	Cells uint64 `json:"cells"`
	// ElapsedMS is wall-clock time (0 when timing is suppressed for
	// golden-file comparison).
	ElapsedMS int64 `json:"elapsed_ms"`
	Result    any   `json:"result"`
}

// Options configures RunAll.
type Options struct {
	// Filters selects scenarios by glob; empty runs everything.
	Filters []string
	// Params overrides scenario defaults (zero fields keep defaults).
	Params Params
	// Observer, if set, streams completed cells for progress reporting.
	Observer func(Cell)
	// Timing controls whether Report.ElapsedMS is recorded.
	Timing bool
}

// RunAll executes the selected scenarios sequentially on the pool and
// returns one Report per scenario in name order: it maps each scenario's
// Space under the scenario's (name, merged params) address, cells in
// parallel, and aggregates them. It is the one way to run a scenario.
// Before it returns, failed or not, it waits for the pool's stores
// (Pool.waitStores): every trace it generated is admitted, every spill
// is on disk, and the stores' Stats count them.
func RunAll(ctx context.Context, pool *Pool, opts Options) ([]Report, error) {
	scens, err := Match(opts.Filters)
	if err != nil {
		return nil, err
	}
	defer pool.waitStores()
	if opts.Observer != nil {
		pool.SetObserver(opts.Observer)
		defer pool.SetObserver(nil)
	}
	reports := make([]Report, 0, len(scens))
	for _, s := range scens {
		if err := ctx.Err(); err != nil {
			return reports, err
		}
		p := opts.Params.Merged(s.Defaults)
		start := time.Now()
		res, cells, err := s.run(ctx, p, pool)
		if err != nil {
			return reports, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		rep := Report{
			Scenario: s.Name,
			Seed:     pool.RootSeed(),
			Workers:  pool.Workers(),
			Params:   p,
			Cells:    uint64(cells),
			Result:   res,
		}
		if opts.Timing {
			rep.ElapsedMS = time.Since(start).Milliseconds()
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
