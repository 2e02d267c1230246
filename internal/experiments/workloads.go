package experiments

// The workloads scenario family evaluates the protection-model lineup
// on spec-driven phase-structured workloads (internal/trace/spec):
// per phase, it measures each model's attacker OAE and the number of
// STBPU re-randomizations the phase triggered. Phase structure is what
// the flat Fig. 3 traces cannot ask about — how defenses behave when
// tenant mix, switch cadence, and branch mix shift mid-trace (load
// ramps, bursts, drift).
//
// Every (spec, phase, model) triple is one cell, grouped trace-major
// by spec so all cells of a spec share one resident trace. A phase
// cell's measurement is defined as: warm the model over the trace
// prefix [0, phaseStart) exactly as an uninterrupted run would, then
// measure over [phaseStart, phaseEnd). The snapshot tier executes that
// definition without the quadratic prefix replay: within a group, each
// model advances through the phase segments once (chunked incremental
// replay is bit-identical to prefix replay — the model carries all
// flush state and the windowed switch accounting never crosses calls),
// every phase boundary is checkpointed into the pool's snapstore, and a
// model that joins mid-trace (a worker executing a phase subset, a
// resumed run) restores the boundary checkpoint instead of replaying
// the prefix. Cell seeds derive from the model's phase-0 shard, so a
// cell remains a pure function of its address and seed — grouping,
// backends, snapshots on or off, and resume all stay byte-identical.

import (
	"context"
	"fmt"
	"io"
	"sort"
	"unicode/utf8"

	"stbpu/internal/harness"
	"stbpu/internal/results"
	"stbpu/internal/sim"
	"stbpu/internal/snapstore"
	"stbpu/internal/trace/spec"
)

// WorkloadPhaseRow is one (spec, phase) measurement across the model
// lineup.
type WorkloadPhaseRow struct {
	Spec    string
	Phase   string
	Records int
	// OAE is the attacker's observation-accuracy equivalent per model,
	// indexed like Models; Normalized divides by the phase's baseline.
	OAE        []float64
	Normalized []float64
	// Rerands counts STBPU re-randomizations triggered within the
	// phase (zero for non-STBPU models).
	Rerands []uint64
}

// WorkloadsResult is the whole family: phase rows for every selected
// spec workload.
type WorkloadsResult struct {
	Models []string
	Rows   []WorkloadPhaseRow
}

// workloadCell is one cell's wire-safe measurement.
type workloadCell struct {
	OAE     float64 `json:"oae"`
	Rerands uint64  `json:"rerands"`
}

// selectedSpecs resolves the scenario's spec population: the named
// registered spec when p.WorkloadSpec is set, else the built-in
// fixtures (capped by MaxWorkloads). The population must be identical
// in every process of a run — built-ins are registered at package
// init, and coordinators forward user specs to workers before cells
// are scheduled.
func selectedSpecs(p harness.Params) ([]*spec.Spec, error) {
	if p.WorkloadSpec != "" {
		s, ok := spec.Lookup(p.WorkloadSpec)
		if !ok {
			return nil, fmt.Errorf("experiments: workload spec %q is not registered in this process", p.WorkloadSpec)
		}
		return []*spec.Spec{s}, nil
	}
	return capList(spec.Builtin(), p.MaxWorkloads), nil
}

// specRecords returns the record budget for one spec under p.
func specRecords(p harness.Params, s *spec.Spec) int {
	if p.Records > 0 {
		return p.Records
	}
	return s.TotalRecords()
}

// workloadsSpace declares the (spec × phase × model) cells, grouped
// trace-major by spec.
func workloadsSpace(p harness.Params, pool *harness.Pool) (harness.Space[map[int]workloadCell, workloadCell], error) {
	specs, err := selectedSpecs(p)
	if err != nil {
		return harness.Space[map[int]workloadCell, workloadCell]{}, err
	}
	kinds := sim.Fig3Kinds()
	k := len(kinds)
	type addr struct{ si, pi, ki int }
	var addrs []addr
	// specBase[si] is the shard index of (si, phase 0, model 0): every
	// phase cell of a (spec, model) pair seeds from its phase-0 shard,
	// so one warm model serves all phases and restored state is
	// bit-identical to prefix replay.
	specBase := make([]int, len(specs))
	for si, s := range specs {
		specBase[si] = len(addrs)
		for pi := range s.Phases {
			for ki := 0; ki < k; ki++ {
				addrs = append(addrs, addr{si, pi, ki})
			}
		}
	}
	rootSeed := harness.DefaultRootSeed
	if pool != nil {
		rootSeed = pool.RootSeed()
	}
	cache := pool.Traces()
	return harness.Joint("workloads", len(addrs),
		func(shard int) string {
			s := specs[addrs[shard].si]
			return harness.Locality(s.WorkloadName(), specRecords(p, s))
		},
		func(ctx context.Context, shards []int, _ []uint64) ([]workloadCell, error) {
			si := addrs[shards[0]].si
			s := specs[si]
			records := specRecords(p, s)
			wl := s.WorkloadName()
			cols, prof, err := cache.GetColumns(wl, records)
			if err != nil {
				return nil, err
			}
			bounds := s.Boundaries(records)
			out := make([]workloadCell, len(shards))

			useSnaps := pool.SnapshotsOn()
			var snaps *snapstore.Store
			if useSnaps {
				snaps = pool.Snaps()
			}

			// One run per model kind present in the group; shards arrive
			// ascending, so each model's wanted phases are ascending too.
			type mrun struct {
				ki      int
				phases  []int // positions in shards/out, ascending phase
				m       sim.Model
				snapper sim.Snapshotter
				fp      string
				pos     int // records already replayed
				lastHi  int // end of the last wanted phase
				next    int // index into phases
				warm    sim.Result
			}
			byKi := map[int]*mrun{}
			var runs []*mrun
			for i, shard := range shards {
				a := addrs[shard]
				mr := byKi[a.ki]
				if mr == nil {
					mr = &mrun{ki: a.ki}
					byKi[a.ki] = mr
					runs = append(runs, mr)
				}
				mr.phases = append(mr.phases, i)
			}
			sort.Slice(runs, func(a, b int) bool { return runs[a].ki < runs[b].ki })
			for _, mr := range runs {
				seed := harness.ShardSeed(rootSeed, "workloads", specBase[si]+mr.ki)
				opt := sim.Options{SharedTokens: prof.SharedTokens, Seed: seed}
				mr.m = sim.New(kinds[mr.ki], opt)
				mr.snapper, _ = mr.m.(sim.Snapshotter)
				mr.fp = sim.Fingerprint(kinds[mr.ki], opt)
				mr.lastHi = bounds[addrs[shards[mr.phases[len(mr.phases)-1]]].pi+1]
				// A model whose first wanted phase starts mid-trace
				// restores the boundary checkpoint instead of replaying
				// the prefix — the snapshot tier's whole point.
				firstLo := bounds[addrs[shards[mr.phases[0]]].pi]
				if useSnaps && mr.snapper != nil && firstLo > 0 {
					key := snapstore.Key{Model: mr.fp, Workload: wl, Records: records, Offset: firstLo}
					if data, ok := snaps.Get(key); ok {
						if err := mr.snapper.DecodeState(data); err == nil {
							mr.pos = firstLo
						} else {
							// A checkpoint that passed the store's checksum
							// but fails model decode (foreign or stale
							// bytes): discard the half-restored model and
							// fall back to replay.
							mr.m = sim.New(kinds[mr.ki], opt)
							mr.snapper, _ = mr.m.(sim.Snapshotter)
						}
					}
				}
			}

			// Walk the phase segments in order; every model whose span
			// covers a segment replays it exactly once, all models of the
			// group sharing one resident pass per segment. Models joining
			// at a later boundary and models already past their last
			// wanted phase simply sit the segment out.
			for pi := 0; pi+1 < len(bounds); pi++ {
				lo, hi := bounds[pi], bounds[pi+1]
				var active []*mrun
				var models []sim.Model
				for _, mr := range runs {
					if mr.pos == lo && lo < mr.lastHi {
						active = append(active, mr)
						models = append(models, mr.m)
					}
				}
				if len(active) == 0 {
					continue
				}
				for _, mr := range active {
					// Finalize counters are cumulative over the model's
					// life; capture them at the boundary so the phase's
					// own contribution is the delta.
					mr.warm = sim.Result{}
					if f, ok := mr.m.(sim.Finalizer); ok {
						f.Finalize(&mr.warm)
					}
				}
				rs, err := sim.RunColumnsMulti(ctx, models, cols.Slice(lo, hi))
				if err != nil {
					return nil, err
				}
				for j, mr := range active {
					mr.pos = hi
					if mr.next < len(mr.phases) {
						i := mr.phases[mr.next]
						if addrs[shards[i]].pi == pi {
							res := rs[j]
							out[i] = workloadCell{
								OAE:     res.OAE(),
								Rerands: res.Rerandomizations - mr.warm.Rerandomizations,
							}
							mr.next++
						}
					}
					if useSnaps && mr.snapper != nil && hi < records {
						key := snapstore.Key{Model: mr.fp, Workload: wl, Records: records, Offset: hi}
						snaps.Put(key, mr.snapper.EncodeState())
					}
				}
			}
			return out, nil
		}), nil
}

// RunWorkloadsCtx measures the Fig. 3 model lineup per spec phase,
// sharding (spec × phase × model) cells grouped trace-major by spec.
func RunWorkloadsCtx(ctx context.Context, p harness.Params, pool *harness.Pool) (WorkloadsResult, error) {
	cells, err := mapSpace(ctx, p, pool, workloadsSpace)
	if err != nil {
		return WorkloadsResult{}, err
	}
	specs, err := selectedSpecs(p)
	if err != nil {
		return WorkloadsResult{}, err
	}
	kinds := sim.Fig3Kinds()
	k := len(kinds)
	res := WorkloadsResult{}
	for _, kind := range kinds {
		res.Models = append(res.Models, kind.String())
	}
	idx := 0
	for _, s := range specs {
		records := specRecords(p, s)
		bounds := s.Boundaries(records)
		for pi := range s.Phases {
			row := WorkloadPhaseRow{
				Spec:       s.WorkloadName(),
				Phase:      s.Phases[pi].Name,
				Records:    bounds[pi+1] - bounds[pi],
				OAE:        make([]float64, k),
				Normalized: make([]float64, k),
				Rerands:    make([]uint64, k),
			}
			for ki := 0; ki < k; ki++ {
				row.OAE[ki] = cells[idx].OAE
				row.Rerands[ki] = cells[idx].Rerands
				idx++
			}
			if base := row.OAE[0]; base > 0 {
				for ki := 0; ki < k; ki++ {
					row.Normalized[ki] = row.OAE[ki] / base
				}
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Render writes the family as text tables (shared renderer:
// results.Grid).
func (r WorkloadsResult) Render(w io.Writer) {
	fmt.Fprintf(w, "spec-driven phase workloads (normalized OAE / rerands per phase)\n")
	g := results.Grid{LabelWidth: 30}
	g.Row(w, "spec/phase", results.Cells("%18s", r.Models...)...)
	for _, row := range r.Rows {
		label := row.Spec + "/" + row.Phase
		if len(label) > 30 {
			// Truncate on a rune boundary: a byte-indexed cut can split a
			// multi-byte rune in a user-supplied spec name and emit a
			// mangled replacement character.
			cut := len(label) - 30
			for cut < len(label) && !utf8.RuneStart(label[cut]) {
				cut++
			}
			label = label[cut:]
		}
		g.Row(w, label, results.Cells("%18.4f", row.Normalized...)...)
	}
}

// Table implements results.Tabler.
func (r WorkloadsResult) Table() results.Table {
	var t results.Table
	for _, row := range r.Rows {
		for i, m := range r.Models {
			cell := results.Labels("spec", row.Spec, "phase", row.Phase, "model", m)
			t.Add(cell, "oae", row.OAE[i])
			t.Add(cell, "norm_oae", row.Normalized[i])
			t.AddUnit(cell, "rerands", "count", float64(row.Rerands[i]))
		}
	}
	return t
}
