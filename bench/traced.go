package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"stbpu/internal/harness"
	"stbpu/internal/snapstore"
	"stbpu/internal/tracestore"
)

// span is one timed interval of the traced pass, relative to its start.
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Failed bool          `json:"failed,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracedDoc mirrors stbpu-suite's document so the traced pass can be held
// to the same output digest (docs/SUITE_JSON.md).
type tracedDoc struct {
	Suite      string                 `json:"suite"`
	Seed       uint64                 `json:"seed"`
	Workers    int                    `json:"workers"`
	ElapsedMS  int64                  `json:"elapsed_ms"`
	Runs       []harness.Report       `json:"runs"`
	Backends   []harness.BackendStats `json:"backends"`
	TraceStore tracestore.Stats       `json:"trace_store"`
	SnapStore  snapstore.Stats        `json:"snap_store"`
}

type tracedResult struct {
	wall  time.Duration
	spans []span
	doc   tracedDoc
	raw   []byte // doc as encoded
}

// tracedPass runs w once in-process with stbpu-suite's wiring (pool,
// stores, tier directories, and on fleet-exec an ExecBackend running the
// built binary), with spans around each layer's public entry point:
// set-up, one harness.RunAll per scenario, every cell the pool observes
// (start = arrival - Cell.Elapsed), and the document encoding.
func tracedPass(ctx context.Context, w workload, seed uint64, suiteBin string, dirs tierDirs) (tracedResult, error) {
	start := time.Now()
	at := func() time.Duration { return time.Since(start) }
	var res tracedResult

	workers := slots
	if w.exec {
		workers = 1
	}
	pool := harness.NewPool(workers, seed)
	pool.SetTraceMajor(true)
	store := tracestore.New(tracestore.DefaultMaxBytes, nil)
	pool.SetSnapshots(true)
	snaps := snapstore.New(snapstore.DefaultMaxBytes)
	if w.tiers != noTiers {
		store.SetMapped(true)
		if err := store.SetDir(dirs.trace); err != nil {
			return res, err
		}
		if err := snaps.SetDir(dirs.snap); err != nil {
			return res, err
		}
	}
	pool.SetTraceStore(store)
	pool.SetSnapStore(snaps)
	if w.exec {
		// stbpu-suite's exec worker argv for -workers 1 and default budgets.
		eb := &harness.ExecBackend{
			Command: []string{suiteBin, "-worker", "-workers=1",
				fmt.Sprintf("-cache-bytes=%d", tracestore.DefaultMaxBytes),
				"-trace-major=true", "-snapshots=true",
				fmt.Sprintf("-snap-bytes=%d", snapstore.DefaultMaxBytes)},
			Workers:      slots,
			BatchTimeout: 10 * time.Minute,
		}
		pool.SetBackend(eb)
		defer eb.Close()
	}
	res.spans = append(res.spans, span{Name: "setup", End: at()})

	scens, err := harness.Match(w.scenarios)
	if err != nil {
		return res, err
	}
	var (
		mu    sync.Mutex
		cells []span
	)
	doc := tracedDoc{Suite: "stbpu-suite", Seed: pool.RootSeed(), Workers: pool.Workers()}
	for _, s := range scens {
		name := "scenario." + s.Name
		s0 := at()
		reports, err := harness.RunAll(ctx, pool, harness.Options{
			Filters: []string{s.Name},
			Params:  w.params(),
			Timing:  true,
			Observer: func(c harness.Cell) {
				end := at()
				mu.Lock()
				cells = append(cells, span{Name: fmt.Sprintf("cell %s/%d", c.Scope, c.Shard),
					Parent: name, Start: end - c.Elapsed, End: end, Failed: c.Err != nil})
				mu.Unlock()
			},
		})
		if err != nil {
			return res, fmt.Errorf("traced %s: %w", s.Name, err)
		}
		res.spans = append(res.spans, span{Name: name, Start: s0, End: at()})
		doc.Runs = append(doc.Runs, reports...)
	}

	e0 := at()
	for _, r := range doc.Runs {
		doc.ElapsedMS += r.ElapsedMS
	}
	if sr, ok := pool.Backend().(harness.StatsReporter); ok {
		doc.Backends = sr.BackendStats()
	}
	doc.TraceStore = store.Stats()
	doc.SnapStore = snaps.Stats()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return res, err
	}
	res.spans = append(res.spans, span{Name: "doc_encode", Start: e0, End: at()})
	res.wall = at()
	mu.Lock()
	res.spans = append(res.spans, cells...)
	mu.Unlock()
	res.doc, res.raw = doc, buf.Bytes()
	return res, nil
}

// layer attributes the traced wall time: top-level spans (set-up,
// scenarios, document encoding) against the gaps between them, and cell
// spans against the cell slots each scenario had.
func (t tracedResult) layer() map[string]float64 {
	m := map[string]float64{}
	var top, scenWall, setup, encode time.Duration
	busyBy := map[string]time.Duration{}
	var busy []float64
	var busyTotal time.Duration
	failed := 0
	for _, s := range t.spans {
		switch {
		case s.Parent != "":
			busyBy[s.Parent] += s.dur()
			busyTotal += s.dur()
			busy = append(busy, float64(s.dur())/1e6)
			if s.Failed {
				failed++
			}
		case s.Name == "setup":
			setup = s.dur()
			top += s.dur()
		case s.Name == "doc_encode":
			encode = s.dur()
			top += s.dur()
		default:
			scenWall += s.dur()
			top += s.dur()
		}
	}
	for name, b := range busyBy {
		m[name+".busy_s"] = b.Seconds()
	}
	unattributed := t.wall - top
	pct, tailMS := tail(busy)
	m["harness.cells"] = float64(len(busy))
	m["harness.cell_busy_s"] = busyTotal.Seconds()
	m["harness.cell_p50_ms"] = median(busy)
	m["harness.cell_tail_ms"] = tailMS
	m["harness.cell_tail_pct"] = pct
	m["harness.slot_idle_s"] = slots*scenWall.Seconds() - busyTotal.Seconds()
	m["harness.utilization"] = ratio(busyTotal.Seconds(), slots*scenWall.Seconds())
	m["harness.unattributed_s"] = unattributed.Seconds()
	m["harness.failed_cells"] = float64(failed)
	m["results.doc_encode_ms"] = float64(encode) / 1e6
	m["tracing.setup_ms"] = float64(setup) / 1e6
	m["tracing.attributed_ratio"] = ratio(top.Seconds(), t.wall.Seconds())
	return m
}

// writeSpans keeps the traced pass's spans next to the workload's other
// artifacts.
func (t tracedResult) writeSpans(path string) error {
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
