// Cell spaces: a scenario declares its cells as data — a Space — and
// RunAll, the local pool and fleet workers all execute that one
// declaration through one binder. Cells of a group share a value
// computed once per batch (a trace-major joint replay over one resident
// trace, a CPU-model timeline); grouping is pure scheduling, so results
// are bit-identical with it on or off, on any backend.

package harness

import (
	"context"
	"fmt"
	"strconv"
	"sync"
)

// Space declares a cell space as data: which cells exist, which of them
// share a computed value, and how to compute each. A cell is a pure
// function of its address, so any process holding the declaration can
// execute any subset of it.
type Space[S, T any] struct {
	// Scope names the space: it seeds every cell (ShardSeed) and keys the
	// journal.
	Scope string
	// N is the cell count; shards are 0..N-1.
	N int
	// Group returns a shard's locality key (see Locality, PairLocality):
	// the warm artifact the cell replays. The fleet ships a key's cells as
	// one chunk, and cells with one key in one batch form a group that
	// shares one Shared value. nil, or an empty key, leaves a cell
	// unlabeled and alone in its group; with the pool's trace-major
	// flag off, every cell is alone in its group.
	Group func(shard int) string
	// Shared computes the value a group's cells share, from the group's
	// shards in the batch (ascending) and their seeds. It runs at most
	// once per group per batch, so a resumed run or a worker's chunk
	// computes it over the pending cells only. nil means cells share
	// nothing.
	Shared func(ctx context.Context, shards []int, seeds []uint64) (S, error)
	// Cell computes one cell from its group's shared value.
	Cell func(ctx context.Context, shared S, shard int, seed uint64) (T, error)
}

// Cells declares an ungrouped space of n cells, each computed by fn
// alone.
func Cells[T any](scope string, n int, fn func(ctx context.Context, shard int, seed uint64) (T, error)) Space[struct{}, T] {
	return Space[struct{}, T]{Scope: scope, N: n,
		Cell: func(ctx context.Context, _ struct{}, shard int, seed uint64) (T, error) {
			return fn(ctx, shard, seed)
		}}
}

// Joint declares a space whose groups each compute in one joint pass:
// run computes every shard it is given (as sim.RunColumnsMulti replays
// N models over one resident trace), Shared keys its results by shard,
// and each cell looks up its own. run must give a shard the same result
// whatever group it runs in — sim.RunColumnsMulti's contract — which
// makes the grouping pure scheduling.
func Joint[T any](scope string, n int, group func(shard int) string,
	run func(ctx context.Context, shards []int, seeds []uint64) ([]T, error)) Space[map[int]T, T] {
	return Space[map[int]T, T]{Scope: scope, N: n, Group: group,
		Shared: func(ctx context.Context, shards []int, seeds []uint64) (map[int]T, error) {
			out, err := run(ctx, shards, seeds)
			if err != nil {
				return nil, err
			}
			if len(out) != len(shards) {
				return nil, fmt.Errorf("%s: group run returned %d results for %d shards", scope, len(out), len(shards))
			}
			byShard := make(map[int]T, len(shards))
			for i, shard := range shards {
				byShard[shard] = out[i]
			}
			return byShard, nil
		},
		Cell: func(_ context.Context, byShard map[int]T, shard int, _ uint64) (T, error) {
			return byShard[shard], nil
		}}
}

// erase drops the space's cell types, for a fleet worker that executes
// cells without aggregating them: results leave the worker as JSON.
func (sp Space[S, T]) erase() Space[any, any] {
	erased := Space[any, any]{Scope: sp.Scope, N: sp.N, Group: sp.Group,
		Cell: func(ctx context.Context, shared any, shard int, seed uint64) (any, error) {
			s, _ := shared.(S)
			return sp.Cell(ctx, s, shard, seed)
		}}
	if sp.Shared != nil {
		erased.Shared = func(ctx context.Context, shards []int, seeds []uint64) (any, error) {
			return sp.Shared(ctx, shards, seeds)
		}
	}
	return erased
}

// bind makes specs (ascending by shard) executable in this process: it
// stamps each spec's locality key and gives it the function computing
// the cell from its group's shared value, which the group's first cell
// to run computes over the group's specs here. With grouped false every
// cell is its own group. RunAll and the fleet worker both bind through
// here, so they execute one declaration the same way.
func (sp Space[S, T]) bind(specs []CellSpec, grouped bool) {
	type group struct {
		shards []int
		seeds  []uint64
		once   sync.Once
		val    S
		err    error
	}
	groups := map[string]*group{}
	for i := range specs {
		s := &specs[i]
		if sp.Group != nil {
			s.Locality = sp.Group(s.Shard)
		}
		g := groups[s.Locality]
		if g == nil || !grouped || s.Locality == "" {
			g = &group{}
			groups[s.Locality] = g
		}
		g.shards = append(g.shards, s.Shard)
		g.seeds = append(g.seeds, s.Seed)
		s.fn = func(ctx context.Context, shard int, seed uint64) (any, error) {
			g.once.Do(func() {
				if sp.Shared != nil {
					g.val, g.err = sp.Shared(ctx, g.shards, g.seeds)
				}
			})
			if g.err != nil {
				return nil, g.err
			}
			return sp.Cell(ctx, g.val, shard, seed)
		}
	}
}

// SetTraceMajor toggles grouping for scenario runs on this pool (default
// on). Off, every cell of every space is its own group and computes its
// own shared value — the exact model-major execution order — which only
// changes scheduling, never results: the flag exists to pin that
// equivalence in tests and to isolate regressions.
func (p *Pool) SetTraceMajor(on bool) {
	p.mu.Lock()
	p.traceMajor = on
	p.mu.Unlock()
}

// TraceMajor reports whether grouping is enabled.
func (p *Pool) TraceMajor() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.traceMajor
}

// Locality formats the canonical locality key for the trace artifact a
// cell replays: the workload (or spec content-hash) name plus the
// record count, which together address one tracestore entry and one
// snapstore spill family. The fleet uses the key for chunking and
// routing only — it never influences results.
func Locality(workload string, records int) string {
	return workload + "@" + strconv.Itoa(records)
}

// PairLocality formats the locality key of a cell that replays two
// traces at once, an SMT pair: "a+b@records".
func PairLocality(a, b string, records int) string {
	return Locality(a+"+"+b, records)
}
