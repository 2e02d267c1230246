// Benchmarks contrasting the two ways to produce per-phase
// measurements: quadratic prefix replay (every phase re-warms from
// record zero) versus the snapshot tier (one warm pass, checkpoint at
// boundaries, restore instead of replay). They run in an external test
// package because the store itself must stay below internal/sim in the
// dependency order — only the benchmark needs live models.

package snapstore_test

import (
	"context"
	"testing"

	"stbpu/internal/sim"
	"stbpu/internal/snapstore"
	"stbpu/internal/trace"
)

// phaseFixture is an 8-phase view over a switch-heavy preset trace
// (the tier's acceptance shape asks for >= 4 phases; suite spec
// workloads run 20k-60k records).
func phaseFixture(b *testing.B) (*trace.Columns, sim.Options, []int) {
	b.Helper()
	const records = 48_000
	p, err := trace.Preset("mysql_128con_50s")
	if err != nil {
		b.Fatal(err)
	}
	cols, err := trace.GenerateColumns(p.WithRecords(records))
	if err != nil {
		b.Fatal(err)
	}
	bounds := make([]int, 0, 9)
	for o := 0; o <= records; o += records / 8 {
		bounds = append(bounds, o)
	}
	return cols, sim.Options{SharedTokens: p.SharedTokens, Seed: 7}, bounds
}

func BenchmarkPhaseWarmup(b *testing.B) {
	cols, opt, bounds := phaseFixture(b)
	ctx := context.Background()
	records := cols.Len()

	// The pre-snapshot path: every phase cell builds a cold model and
	// replays the full prefix before measuring its own records —
	// quadratic in the phase count.
	b.Run("replay", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for pi := 0; pi+1 < len(bounds); pi++ {
				m := sim.New(sim.KindSTBPU, opt)
				if bounds[pi] > 0 {
					if _, err := sim.RunColumnsCtx(ctx, m, cols.Slice(0, bounds[pi])); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sim.RunColumnsCtx(ctx, m, cols.Slice(bounds[pi], bounds[pi+1])); err != nil {
					b.Fatal(err)
				}
			}
		}
	})

	// The snapshot tier: each phase restores the boundary checkpoint
	// (encode/decode round trip included in the cost) and replays only
	// its own records, checkpointing the next boundary — linear total.
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		fp := sim.Fingerprint(sim.KindSTBPU, opt)
		for i := 0; i < b.N; i++ {
			snaps := snapstore.New(0)
			for pi := 0; pi+1 < len(bounds); pi++ {
				lo, hi := bounds[pi], bounds[pi+1]
				m := sim.New(sim.KindSTBPU, opt).(sim.Snapshotter)
				if lo > 0 {
					k := snapstore.Key{Model: fp, Workload: cols.Name, Records: records, Offset: lo}
					data, ok := snaps.Get(k)
					if !ok {
						b.Fatalf("missing checkpoint at %d", lo)
					}
					if err := m.DecodeState(data); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := sim.RunColumnsCtx(ctx, m, cols.Slice(lo, hi)); err != nil {
					b.Fatal(err)
				}
				if hi < records {
					k := snapstore.Key{Model: fp, Workload: cols.Name, Records: records, Offset: hi}
					snaps.Put(k, m.EncodeState())
				}
			}
		}
	})
}

// BenchmarkSpillUnchanged times a Put whose checkpoint is already on disk
// — what every boundary of a warm trace-major rerun on a shared -snap-dir
// does — through to its spill (Wait). The spill compares the file and
// writes nothing; replacing it instead would pay a temp-file fsync and a
// rename over an existing name per put.
func BenchmarkSpillUnchanged(b *testing.B) {
	cols, opt, bounds := phaseFixture(b)
	m := sim.New(sim.KindSTBPU, opt).(sim.Snapshotter)
	if _, err := sim.RunColumnsCtx(context.Background(), m, cols.Slice(0, bounds[1])); err != nil {
		b.Fatal(err)
	}
	k := snapstore.Key{Model: sim.Fingerprint(sim.KindSTBPU, opt), Workload: cols.Name, Records: cols.Len(), Offset: bounds[1]}
	data := m.EncodeState()
	snaps := snapstore.New(0)
	if err := snaps.SetDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	snaps.Put(k, data)
	snaps.Wait()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snaps.Put(k, data)
		snaps.Wait()
	}
	b.StopTimer()
	if st := snaps.Stats(); st.DiskWrites != 1 || st.DiskErrors != 0 {
		b.Fatalf("unchanged puts touched the disk: %+v", st)
	}
}
