package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"stbpu/internal/cpu"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
	"stbpu/internal/tracestore"
)

// probeReps is how many times each probe repeats; it reports the median.
const probeReps = 5

// timed runs op probeReps times, with prep (untimed) before each, and
// returns the median wall time of op.
func timed(prep, op func() error) (time.Duration, error) {
	base := time.Now()
	return timedBy(func() time.Duration { return time.Since(base) }, prep, op)
}

// timedCPU is timed measuring this process's user+sys time instead, for
// ops that spread over several threads: it gives their serial cost.
func timedCPU(prep, op func() error) (time.Duration, error) {
	return timedBy(func() time.Duration {
		var ru syscall.Rusage
		_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
		return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}, prep, op)
}

func timedBy(clock func() time.Duration, prep, op func() error) (time.Duration, error) {
	ds := make([]float64, probeReps)
	for i := range ds {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		t0 := clock()
		if err := op(); err != nil {
			return 0, err
		}
		ds[i] = float64(clock() - t0)
	}
	return time.Duration(median(ds)), nil
}

func sameColumns(a, b *trace.Columns) bool {
	return a.Name == b.Name && slices.Equal(a.PCs, b.PCs) && slices.Equal(a.Targets, b.Targets) &&
		slices.Equal(a.Flags, b.Flags) && slices.Equal(a.PIDs, b.PIDs) && slices.Equal(a.Programs, b.Programs)
}

// probeLayers times direct calls into each layer's public API on one
// trace key, outside any scheduler: generation, STBT v2 write, decode
// and map, five-model columnar replay, the cpu cycle model, and the STBPU
// snapshot codec. Each probe checks its own output.
func probeLayers(ctx context.Context, name string, records int, seed uint64, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	perRecord := func(d time.Duration, n int) float64 { return float64(d) / float64(n) }

	var cols *trace.Columns
	var prof trace.Profile
	d, err := timed(nil, func() (err error) {
		cols, prof, err = tracestore.PresetGenColumns(name, records)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("probe gen %s: %w", name, err)
	}
	n := cols.Len()
	m["trace.gen_ns_per_record"] = perRecord(d, n)

	var buf bytes.Buffer
	reset := func() error { buf.Reset(); return nil }
	if d, err = timed(reset, func() error { return trace.WriteColumnsMapped(&buf, cols) }); err != nil {
		return nil, fmt.Errorf("probe write: %w", err)
	}
	m["trace.stbt_write_ns_per_record"] = perRecord(d, n)
	data := buf.Bytes()

	var decoded *trace.Columns
	if d, err = timed(nil, func() (err error) {
		decoded, err = trace.ReadColumns(bytes.NewReader(data))
		return err
	}); err != nil {
		return nil, fmt.Errorf("probe decode: %w", err)
	}
	if !sameColumns(decoded, cols) {
		return nil, errors.New("probe decode: decoded trace differs from the generated one")
	}
	m["trace.stbt_decode_ns_per_record"] = perRecord(d, n)

	path := filepath.Join(dir, "probe.stbt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, err
	}
	if d, err = timed(nil, func() error { return mapOnce(path, cols) }); err != nil {
		return nil, fmt.Errorf("probe map: %w", err)
	}
	m["trace.mmap_map_us"] = float64(d) / 1e3

	kinds := sim.Fig3Kinds()
	opts := sim.Options{SharedTokens: prof.SharedTokens, Seed: seed}
	var models []sim.Model
	newModels := func() error {
		models = make([]sim.Model, len(kinds))
		for i, k := range kinds {
			models[i] = sim.New(k, opts)
		}
		return nil
	}
	// RunColumnsMulti steps the models on one goroutine each, so its cost
	// per model-record is CPU time, not wall time.
	if d, err = timedCPU(newModels, func() error {
		_, err := sim.RunColumnsMulti(ctx, models, cols)
		return err
	}); err != nil {
		return nil, fmt.Errorf("probe replay: %w", err)
	}
	m["sim.replay_ns_per_model_record"] = perRecord(d, n*len(kinds))

	recs := cols.Trace()
	var core *cpu.Core
	if d, err = timed(func() error {
		core = cpu.New(cpu.ConfigFor(name), sim.New(sim.KindBaseline, opts))
		return nil
	}, func() error {
		_, err := core.RunCtx(ctx, recs)
		return err
	}); err != nil {
		return nil, fmt.Errorf("probe cpu: %w", err)
	}
	m["cpu.ns_per_record"] = perRecord(d, n)

	st, ok := models[len(kinds)-1].(sim.Snapshotter) // STBPU, warm from the last replay
	if !ok {
		return nil, errors.New("probe snapshot: STBPU model is not a Snapshotter")
	}
	var state []byte
	if d, err = timed(nil, func() error { state = st.EncodeState(); return nil }); err != nil {
		return nil, err
	}
	m["snapshot.encode_us"] = float64(d) / 1e3
	m["snapshot.bytes"] = float64(len(state))
	var fresh sim.Snapshotter
	if d, err = timed(func() error {
		fresh, ok = sim.New(sim.KindSTBPU, opts).(sim.Snapshotter)
		if !ok {
			return errors.New("STBPU model is not a Snapshotter")
		}
		return nil
	}, func() error { return fresh.DecodeState(state) }); err != nil {
		return nil, fmt.Errorf("probe snapshot decode: %w", err)
	}
	if !bytes.Equal(fresh.EncodeState(), state) {
		return nil, errors.New("probe snapshot: decoded state re-encodes differently")
	}
	m["snapshot.decode_us"] = float64(d) / 1e3
	return m, nil
}

// mapOnce maps an STBT v2 file read-only, views it as columns, checks
// them against want, and unmaps it.
func mapOnce(path string, want *trace.Columns) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(st.Size()), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	defer syscall.Munmap(data)
	c, err := trace.MapColumns(data)
	if err != nil {
		return err
	}
	if c.Len() != want.Len() {
		return fmt.Errorf("mapped %d records, want %d", c.Len(), want.Len())
	}
	return nil
}
