package experiments

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"stbpu/internal/harness"
	"stbpu/internal/spill"
)

// TestRunAllReportsSpillsOnDisk: the tiers-cold shape (ittage, warmup
// and workloads with both persistent tiers, traces streamed into the
// replay and spilled behind it) leaves every spill on disk by the time
// RunAll returns, so each store's disk_writes equals the files in its
// directory; a second run over the same directories generates nothing.
// The background writer is held until 50 ms after the run's last cell,
// so a RunAll that returned without waiting for it would find the
// files missing.
func TestRunAllReportsSpillsOnDisk(t *testing.T) {
	traceDir, snapDir := t.TempDir(), t.TempDir()
	settings := harness.Settings{TraceDir: traceDir, TraceMajor: true, TraceMmap: true, Snapshots: true, SnapDir: snapDir}
	opts := harness.Options{
		Filters: []string{"ittage", "warmup", "workloads"},
		Params:  harness.Params{Records: 12_000, Sweep: []float64{5_000, 12_000}},
	}
	var cells atomic.Int64
	opts.Observer = func(harness.Cell) { cells.Add(1) }
	if _, err := harness.RunAll(context.Background(), harness.NewPool(2, harness.DefaultRootSeed), opts); err != nil {
		t.Fatal(err)
	}
	total := cells.Load()
	run := func() *harness.Pool {
		pool, err := settings.NewPool(2, harness.DefaultRootSeed, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		cells.Store(0)
		lastCell := make(chan struct{})
		opts.Observer = func(harness.Cell) {
			if cells.Add(1) == total {
				close(lastCell)
			}
		}
		spill.Queue(func() {
			select {
			case <-lastCell:
			case <-time.After(time.Minute): // a miscounted run fails below instead of hanging
			}
			time.Sleep(50 * time.Millisecond)
		})
		if _, err := harness.RunAll(context.Background(), pool, opts); err != nil {
			t.Fatal(err)
		}
		return pool
	}
	count := func(dir, glob string) uint64 {
		files, err := filepath.Glob(filepath.Join(dir, glob))
		if err != nil {
			t.Fatal(err)
		}
		return uint64(len(files))
	}

	pool := run()
	ts, ss := pool.Traces().Stats(), pool.Snaps().Stats()
	if ts.DiskWrites == 0 || ts.DiskWrites != ts.Generations || ts.DiskWrites != count(traceDir, "*.stbt") {
		t.Errorf("trace_store %+v: disk_writes != %d .stbt files on disk", ts, count(traceDir, "*.stbt"))
	}
	if ss.DiskWrites == 0 || ss.DiskWrites != count(snapDir, "*.snap") {
		t.Errorf("snap_store %+v: disk_writes != %d .snap files on disk", ss, count(snapDir, "*.snap"))
	}

	warm := run()
	if ts := warm.Traces().Stats(); ts.Generations != 0 || ts.DiskWrites != 0 || ts.MmapHits == 0 {
		t.Errorf("warm trace_store %+v: want every trace mapped from the spills", ts)
	}
	if ss := warm.Snaps().Stats(); ss.DiskWrites != 0 || ss.Puts == 0 {
		t.Errorf("warm snap_store %+v: want puts onto identical spills, none written", ss)
	}
}
