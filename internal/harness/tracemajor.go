// Trace-major scheduling: MapTraceMajor groups a scope's cells by the
// trace they replay so one resident trace.Columns pass feeds every
// model of the group (sim.RunColumnsMulti), instead of streaming the
// same trace through cache once per cell. Pure scheduling — per-cell
// results and seeds are bit-identical to the model-major Map path.

package harness

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// SetTraceMajor toggles trace-major scheduling for MapTraceMajor calls
// on this pool (default on). Off, every cell forms its own group — the
// exact model-major execution order — which only changes scheduling,
// never results: the flag exists to pin that equivalence in tests and
// to isolate regressions.
func (p *Pool) SetTraceMajor(on bool) {
	p.mu.Lock()
	p.modelMajor = !on
	p.mu.Unlock()
}

// TraceMajor reports whether trace-major scheduling is enabled.
func (p *Pool) TraceMajor() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.modelMajor
}

// traceMajorWantKey carries a worker-side shard filter in the context:
// when a capture run re-executes a scenario's decomposition for a
// subset of one scope's shards, MapTraceMajor groups only that subset,
// so the worker never replays traces for cells it was not asked for.
// Filtering cannot change results — each cell is a pure function of its
// (scope, shard, seed) address regardless of which group ran it.
type traceMajorWantKey struct{}

type traceMajorWant struct {
	scope string
	want  map[int]bool
}

func withTraceMajorWant(ctx context.Context, scope string, want map[int]bool) context.Context {
	return context.WithValue(ctx, traceMajorWantKey{}, traceMajorWant{scope: scope, want: want})
}

// Locality formats the canonical locality key for the trace artifact a
// cell replays: the workload (or spec content-hash) name plus the
// record count, which together address one tracestore entry and one
// snapstore spill family. Wire backends use the key for chunking,
// routing and prefetch only — it never influences results.
func Locality(workload string, records int) string {
	return workload + "@" + strconv.Itoa(records)
}

// SplitLocality parses a Locality key back into its workload name and
// record count. Workload names may themselves contain '@' (none do
// today, but spec hashes are open-ended), so the split is at the last
// separator.
func SplitLocality(key string) (workload string, records int, ok bool) {
	i := strings.LastIndexByte(key, '@')
	if i < 0 {
		return "", 0, false
	}
	n, err := strconv.Atoi(key[i+1:])
	if err != nil || n < 0 {
		return "", 0, false
	}
	return key[:i], n, true
}

// pairSep joins the two workload names of a pair key. No workload name
// contains it: preset names use [A-Za-z0-9._-], and spec names are
// "spec:" + [A-Za-z0-9._-] + "@" + a hex hash.
const pairSep = "+"

// PairLocality formats the locality key of a cell that replays two
// traces at once, an SMT pair: "a+b@records". The key names both
// traces, so a worker can warm each one (see localityTraces).
func PairLocality(a, b string, records int) string {
	return Locality(a+pairSep+b, records)
}

// localityTraces expands a locality key into the workload names of the
// traces it names — one, or both halves of a pair key — and their
// record count. A malformed key names none.
func localityTraces(key string) (names []string, records int) {
	name, records, ok := SplitLocality(key)
	if !ok {
		return nil, 0
	}
	if a, b, pair := strings.Cut(name, pairSep); pair {
		return []string{a, b}, records
	}
	return []string{name}, records
}

// cellLocalityKey carries the per-shard locality labeler to Map in the
// context, scoped to one cell space, so Map can stamp CellSpec.Locality
// without changing its signature for unlabeled callers.
type cellLocalityKey struct{}

type cellLocality struct {
	scope string
	fn    func(shard int) string
}

// WithLocality returns ctx carrying fn as the locality labeler of the
// cell space named scope: Map stamps each of that scope's specs with
// fn(shard) (see Locality, PairLocality). MapTraceMajor labels its
// groups this way; a plain Map call whose cells share traces or other
// per-run values uses it directly, so wire coordinators keep those
// cells together. Pure metadata: results never depend on it. A nil fn
// returns ctx unchanged.
func WithLocality(ctx context.Context, scope string, fn func(shard int) string) context.Context {
	if fn == nil {
		return ctx
	}
	return context.WithValue(ctx, cellLocalityKey{}, cellLocality{scope: scope, fn: fn})
}

func localityFor(ctx context.Context, scope string) func(int) string {
	if l, ok := ctx.Value(cellLocalityKey{}).(cellLocality); ok && l.scope == scope {
		return l.fn
	}
	return nil
}

// MapTraceMajor runs a grouped cell space: key assigns each shard to a
// group (cells sharing a workload trace), and run executes one whole
// group — shards in ascending order with their ShardSeeds — returning
// one result per shard. Scheduling, journaling, and backends are
// exactly Map's: each cell still has its own spec, seed, and journal
// entry; the only difference is that the first cell of a group to
// execute computes the whole group in one pass (one trace residency, N
// models) and groupmates reuse the memo.
//
// locality labels each shard's cell spec with the warm-artifact key the
// group replays (see Locality, WithLocality); nil leaves specs
// unlabeled. The label feeds chunking, routing and prefetch in wire
// backends and is stamped on the model-major fallback path too — pure
// metadata either way.
//
// run must be a pure function of the (shards, seeds) it is given, with
// results independent of how shards are grouped — sim.RunColumnsMulti's
// contract. Under that contract the output is bit-identical to Map over
// the same per-cell work, with the pool's TraceMajor flag on or off, on
// any backend, at any worker count.
func MapTraceMajor[T any](ctx context.Context, p *Pool, scope string, n int,
	key func(shard int) int,
	locality func(shard int) string,
	run func(ctx context.Context, shards []int, seeds []uint64) ([]T, error)) ([]T, error) {
	if p == nil {
		p = Default()
	}
	ctx = WithLocality(ctx, scope, locality)
	single := func(ctx context.Context, shard int, seed uint64) (T, error) {
		var zero T
		res, err := run(ctx, []int{shard}, []uint64{seed})
		if err != nil {
			return zero, err
		}
		if len(res) != 1 {
			return zero, fmt.Errorf("%s: group run returned %d results for 1 shard", scope, len(res))
		}
		return res[0], nil
	}
	if !p.TraceMajor() {
		return Map(ctx, p, scope, n, single)
	}

	// A worker capture run executes only a subset of the scope's shards;
	// group just those, so no trace is replayed for unrequested cells.
	member := func(int) bool { return true }
	if f, ok := ctx.Value(traceMajorWantKey{}).(traceMajorWant); ok && f.scope == scope {
		member = func(shard int) bool { return f.want[shard] }
	}
	type group struct {
		shards []int
		seeds  []uint64
		index  map[int]int // shard → position in shards/out
		once   sync.Once
		out    []T
		err    error
	}
	groups := map[int]*group{}
	for shard := 0; shard < n; shard++ {
		if !member(shard) {
			continue
		}
		g := groups[key(shard)]
		if g == nil {
			g = &group{index: map[int]int{}}
			groups[key(shard)] = g
		}
		g.index[shard] = len(g.shards)
		g.shards = append(g.shards, shard)
		g.seeds = append(g.seeds, ShardSeed(p.rootSeed, scope, shard))
	}

	return Map(ctx, p, scope, n, func(ctx context.Context, shard int, seed uint64) (T, error) {
		var zero T
		g := groups[key(shard)]
		if g == nil {
			// A shard outside the want filter reached execution anyway —
			// grouping assumptions are broken; fail loudly rather than
			// silently recompute.
			return zero, fmt.Errorf("%s shard %d: not in any trace-major group", scope, shard)
		}
		g.once.Do(func() {
			g.out, g.err = run(ctx, g.shards, g.seeds)
			if g.err == nil && len(g.out) != len(g.shards) {
				g.err = fmt.Errorf("%s: group run returned %d results for %d shards", scope, len(g.out), len(g.shards))
			}
		})
		if g.err != nil {
			return zero, g.err
		}
		return g.out[g.index[shard]], nil
	})
}
