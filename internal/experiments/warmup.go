package experiments

// The warmup experiment quantifies this reproduction's main documented
// divergence from the paper: Fig. 3's flushing-model penalties are
// gentler here than published because synthetic traces carry less warm
// predictor state than real binaries — a flush discards less. The curve
// below makes that mechanism measurable: as traces grow (more warm state
// accumulated between context switches), the flushing models' normalized
// OAE falls while STBPU's stays flat. With the default seed µcode-1
// reads 0.882, 0.859 and 0.839 at 10k, 40k and 160k records, about
// -0.022 per 4x trace length; continued log-linearly, that trend reaches
// the paper's 0.77 only near 13M records. FlushPenaltyGrows checks the
// direction alone (µcode-1 falls from the shortest trace to the longest
// while STBPU stays within eps of flat), not the magnitude; nothing here
// compares the curve with the paper's averages.

import (
	"context"
	"fmt"
	"io"
	"sort"

	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
	"stbpu/internal/trace/spec"
)

// WarmupPoint is one trace-length measurement.
type WarmupPoint struct {
	Records int
	// NormOAE is OAE normalized to baseline, indexed by sim.Fig3Kinds.
	NormOAE [5]float64
}

// WarmupResult is the whole curve.
type WarmupResult struct {
	Workload string
	Points   []WarmupPoint
}

// DefaultWarmupSweep is the trace-length axis of the curve, as the
// scenario's default harness.Params sweep.
func DefaultWarmupSweep() []float64 { return []float64{10_000, 40_000, 160_000} }

// warmupLengths returns the trace lengths in p.Sweep.
func warmupLengths(p harness.Params) []int {
	lengths := make([]int, len(p.Sweep))
	for i, l := range p.Sweep {
		lengths[i] = int(l)
	}
	return lengths
}

// warmupScenario declares the curve's (length × model) cells and the
// curve over them. p.Workload names the trace preset; p.Sweep carries
// the trace lengths (DefaultWarmupSweep unless set).
//
// Preset workloads generate prefix-stable traces (the l-record trace is
// the prefix of any longer one — pinned by trace's prefix-stability
// test), so the whole curve collapses into ONE trace-major group: each
// model replays the longest trace once, and every shorter length's OAE
// is read off the cumulative misprediction count at that record
// boundary — counters are additive, so the cumulative sums are
// bit-identical to a cold run of each prefix. That turns the old
// quadratic warmup replay (every length re-replays its shared prefix)
// into a single O(maxLen) pass per model. Spec workloads rescale
// their phase boundaries with the record budget and are NOT
// prefix-stable, so they keep the per-length grouping.
func warmupScenario(p harness.Params, pool *harness.Pool) (harness.Space[map[int]float64, float64], func([]float64) (WarmupResult, error), error) {
	lengths := warmupLengths(p)
	kinds := sim.Fig3Kinds()
	cache := pool.Traces()
	k := len(kinds)
	rootSeed := pool.RootSeed()
	_, isSpec := spec.Lookup(p.Workload)

	// Trace-major grouping: prefix-stable presets share one group (one
	// resident trace, one pass per model); spec workloads group by trace
	// length.
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	group := func(int) string { return harness.Locality(p.Workload, maxLen) }
	if isSpec {
		group = func(shard int) string { return harness.Locality(p.Workload, lengths[shard/k]) }
	}
	run := func(ctx context.Context, shards []int, seeds []uint64) ([]float64, error) {
		if isSpec {
			rs, err := replayLineup(ctx, cache, p.Workload, lengths[shards[0]/k], shards, seeds,
				func(shard int, seed uint64, sharedTokens bool) sim.Model {
					return sim.New(kinds[shard%k], sim.Options{SharedTokens: sharedTokens, Seed: seed})
				})
			if err != nil {
				return nil, err
			}
			return oaes(rs), nil
		}

		// Single-pass path. Boundaries are the sorted unique lengths;
		// each model replays the inter-boundary segments once, and a
		// cell (length, model) reads the cumulative mispredictions when
		// its boundary is crossed. Seeds derive from the model's
		// length-0 shard (one model instance serves every length).
		cols, prof, err := cache.StreamColumns(p.Workload, maxLen)
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(shards))
		type mrun struct {
			ki      int
			m       sim.Model
			misp    uint64
			maxWant int
			want    map[int][]int // length → positions in shards/out
		}
		byKi := map[int]*mrun{}
		var runs []*mrun
		for i, shard := range shards {
			li, ki := shard/k, shard%k
			mr := byKi[ki]
			if mr == nil {
				mr = &mrun{ki: ki, want: map[int][]int{}}
				byKi[ki] = mr
				runs = append(runs, mr)
			}
			l := lengths[li]
			mr.want[l] = append(mr.want[l], i)
			if l > mr.maxWant {
				mr.maxWant = l
			}
		}
		sort.Slice(runs, func(a, b int) bool { return runs[a].ki < runs[b].ki })
		for _, mr := range runs {
			mr.m = sim.New(kinds[mr.ki], sim.Options{SharedTokens: prof.SharedTokens,
				Seed: harness.ShardSeed(rootSeed, "warmup", mr.ki)})
		}
		bounds := append([]int{0}, lengths...)
		sort.Ints(bounds)
		uniq := bounds[:1]
		for _, b := range bounds[1:] {
			if b != uniq[len(uniq)-1] {
				uniq = append(uniq, b)
			}
		}
		emit := func(mr *mrun, l int) {
			for _, i := range mr.want[l] {
				out[i] = 1 - stats.Ratio(mr.misp, uint64(l))
			}
		}
		for _, mr := range runs {
			emit(mr, 0) // degenerate zero-length cells, if any
		}
		for j := 0; j+1 < len(uniq); j++ {
			lo, hi := uniq[j], uniq[j+1]
			var active []*mrun
			var models []sim.Model
			for _, mr := range runs {
				if mr.maxWant > lo {
					active = append(active, mr)
					models = append(models, mr.m)
				}
			}
			if len(active) == 0 {
				break
			}
			rs, err := sim.RunColumnsMulti(ctx, models, cols.Slice(lo, hi))
			if err != nil {
				return nil, err
			}
			for idx, mr := range active {
				mr.misp += rs[idx].Mispredicts
				emit(mr, hi)
			}
		}
		return out, nil
	}
	return harness.Joint("warmup", len(lengths)*k, group, run), func(oaes []float64) (WarmupResult, error) {
		res := WarmupResult{Workload: p.Workload}
		res.Points = make([]WarmupPoint, len(lengths))
		for li := range lengths {
			pt := WarmupPoint{Records: lengths[li]}
			for ki := 0; ki < k; ki++ {
				pt.NormOAE[ki] = oaes[li*k+ki] / oaes[li*k]
			}
			res.Points[li] = pt
		}
		return res, nil
	}, nil
}

// Render writes the curve as a text table (shared renderer: results.Grid).
func (r WarmupResult) Render(w io.Writer) {
	fmt.Fprintf(w, "warm-state curve on %s (normalized OAE)\n", r.Workload)
	g := results.Grid{LabelWidth: 10}
	g.Row(w, "records", results.Cells("%18s", sim.Fig3Kinds()...)...)
	for _, p := range r.Points {
		g.Row(w, results.Itoa(p.Records), results.Cells("%18.4f", p.NormOAE[:]...)...)
	}
}

// FlushPenaltyGrows reports whether the flushing models' penalty deepens
// with trace length while STBPU's stays within eps of flat — the claimed
// mechanism behind the Fig. 3 magnitude difference.
func (r WarmupResult) FlushPenaltyGrows(eps float64) bool {
	if len(r.Points) < 2 {
		return false
	}
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	ucodeDeepens := last.NormOAE[1] < first.NormOAE[1] // µcode-1
	stbpuFlat := last.NormOAE[4] >= first.NormOAE[4]-eps
	return ucodeDeepens && stbpuFlat
}
