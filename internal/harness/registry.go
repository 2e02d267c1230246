package harness

import (
	"context"
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

// Scenario is one named, parameterized experiment. Space declares its
// cells; Run maps that space, aggregates in shard order, and returns a
// JSON-marshalable result (conventionally one that also implements
// Renderer for text output).
type Scenario struct {
	// Name identifies the scenario in the registry and in run filters.
	Name string
	// Description is a one-line summary for listings.
	Description string
	// Defaults fills unset Params fields at run time.
	Defaults Params
	// Space declares the cell space Run maps under the merged params on
	// the pool Run receives (see Declare). A fleet worker builds it from
	// a chunk's params and executes the chunk's cells without calling
	// Run. nil for scenarios that map no cells.
	Space func(p Params, pool *Pool) (Space[any, any], error)
	// Run executes the scenario on the pool.
	Run func(ctx context.Context, p Params, pool *Pool) (any, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario; it panics on empty or duplicate names so
// registration bugs surface at init time.
func Register(s Scenario) {
	if s.Name == "" || s.Run == nil {
		panic("harness: Register with empty name or nil Run")
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
	// Cells is how many cells the run executed.
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

// RunAll executes the selected scenarios sequentially on the pool (each
// scenario parallelizes internally) and returns one Report per scenario in
// name order.
func RunAll(ctx context.Context, pool *Pool, opts Options) ([]Report, error) {
	scens, err := Match(opts.Filters)
	if err != nil {
		return nil, err
	}
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
		before := pool.Cells()
		start := time.Now()
		// The scenario context makes every CellSpec Map emits under this
		// Run addressable by (scenario, params), which is what wire
		// backends ship to workers.
		pool.beginScenario(s.Name, p)
		res, err := s.Run(ctx, p, pool)
		pool.endScenario()
		if err != nil {
			return reports, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		rep := Report{
			Scenario: s.Name,
			Seed:     pool.RootSeed(),
			Workers:  pool.Workers(),
			Params:   p,
			Cells:    pool.Cells() - before,
			Result:   res,
		}
		if opts.Timing {
			rep.ElapsedMS = time.Since(start).Milliseconds()
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
