package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/snapstore"
	"stbpu/internal/tracestore"
)

// Paper figures the simulated statistics are checked against (the
// repository holds no other reference): STBPU keeps ~0.99 of baseline
// OAE and at least 0.96 of baseline IPC.
const (
	paperSTBPUOAENorm = 0.99
	paperSTBPUIPCNorm = 0.96
)

const (
	// warmupLimit bounds the uncalibrated warm-up and oracle runs.
	warmupLimit = 120 * time.Second
	// A timed rep times out at timeoutFactor × the warm-up wall time,
	// but never below minRepLimit, so a brief host stall is not a
	// failure.
	timeoutFactor = 5
	minRepLimit   = 30 * time.Second
)

// suiteDoc is the part of a stbpu-suite document the layer metrics read
// (schema: docs/SUITE_JSON.md).
type suiteDoc struct {
	Runs []struct {
		Scenario  string          `json:"scenario"`
		Cells     uint64          `json:"cells"`
		ElapsedMS int64           `json:"elapsed_ms"`
		Result    json.RawMessage `json:"result"`
	} `json:"runs"`
	Backends   []harness.BackendStats `json:"backends"`
	TraceStore tracestore.Stats       `json:"trace_store"`
	SnapStore  snapstore.Stats        `json:"snap_store"`
}

func (d suiteDoc) cells() int {
	n := 0
	for _, r := range d.Runs {
		n += int(r.Cells)
	}
	return n
}

const mib = 1 << 20

// docLayer reads the per-layer counters one suite document reports.
func docLayer(raw []byte) (map[string]float64, error) {
	var d suiteDoc
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("suite document: %w", err)
	}
	ts, ss := d.TraceStore, d.SnapStore
	m := map[string]float64{
		"tracestore.hits":        float64(ts.Hits),
		"tracestore.misses":      float64(ts.Misses),
		"tracestore.generations": float64(ts.Generations),
		"tracestore.evictions":   float64(ts.Evictions),
		"tracestore.disk_hits":   float64(ts.DiskHits),
		"tracestore.disk_writes": float64(ts.DiskWrites),
		"tracestore.disk_errors": float64(ts.DiskErrors),
		"tracestore.mmap_hits":   float64(ts.MmapHits),
		"tracestore.hit_ratio":   ratio(float64(ts.Hits), float64(ts.Hits+ts.Misses)),
		"tracestore.resident_mb": float64(ts.Bytes) / mib,
		"tracestore.mapped_mb":   float64(ts.BytesMapped) / mib,
		"snapstore.puts":         float64(ss.Puts),
		"snapstore.hits":         float64(ss.Hits),
		"snapstore.misses":       float64(ss.Misses),
		"snapstore.disk_hits":    float64(ss.DiskHits),
		"snapstore.disk_writes":  float64(ss.DiskWrites),
		"snapstore.evictions":    float64(ss.Evictions),
		"snapstore.hit_ratio":    ratio(float64(ss.Hits), float64(ss.Hits+ss.Misses)),
		"snapstore.resident_mb":  float64(ss.Bytes) / mib,
	}
	var wallMS, retries, bin, js, cells float64
	for _, b := range d.Backends {
		wallMS += float64(b.WallMS)
		retries += float64(b.Retries)
		bin += float64(b.WireBinaryBytes)
		js += float64(b.WireJSONBytes)
		cells += float64(b.Cells)
	}
	m["backend.wall_s"] = wallMS / 1e3
	m["backend.retries"] = retries
	m["wire.binary_bytes"] = bin
	m["wire.json_bytes"] = js
	m["wire.bytes_per_cell"] = ratio(bin+js, cells)
	for _, r := range d.Runs {
		m["scenario."+r.Scenario+".wall_s"] = float64(r.ElapsedMS) / 1e3
		m["scenario."+r.Scenario+".cells"] = float64(r.Cells)
		switch r.Scenario {
		case "fig3":
			var f experiments.Fig3Result
			if err := json.Unmarshal(r.Result, &f); err != nil {
				return nil, fmt.Errorf("fig3 result: %w", err)
			}
			st := f.AvgNormalized[4]
			m["model.stbpu_oae_norm"] = st
			m["model.flush_oae_norm_min"] = math.Min(f.AvgNormalized[1], f.AvgNormalized[2])
			m["model.oae_err_vs_paper"] = math.Abs(st - paperSTBPUOAENorm)
		case "fig4":
			var f experiments.Fig4Result
			if err := json.Unmarshal(r.Result, &f); err != nil {
				return nil, fmt.Errorf("fig4 result: %w", err)
			}
			ipc := 0.0
			for _, c := range f.Avg {
				ipc += c.NormIPC / float64(len(f.Avg))
			}
			m["model.stbpu_ipc_norm"] = ipc
			m["model.ipc_shortfall_vs_paper"] = math.Max(0, paperSTBPUIPCNorm-ipc)
		}
	}
	return m, nil
}

// runner measures one workload: a discarded warm-up rep that calibrates
// the timeout and primes warm tiers, the output oracle, then timed reps
// one at a time (a closed loop of one client).
type runner struct {
	w     workload
	seed  uint64
	suite string // stbpu-suite binary
	dir   string // the workload's work directory
	refs  refTable

	want  string        // reference digest of the normalized document
	cells int           // cells in one rep
	limit time.Duration // per-rep timeout

	runs      []sample
	ok        []float64 // per rep: 1 if it passed, 0 if it failed
	layer     map[string][]float64
	attempted int
	failed    int
	errs      []string
	lastDoc   []byte
}

func newRunner(w workload, seed uint64, suite, work string, refs refTable) *runner {
	return &runner{w: w, seed: seed, suite: suite, refs: refs,
		dir: filepath.Join(work, w.name), layer: map[string][]float64{}}
}

func (r *runner) tierDirs() tierDirs { return newTierDirs(filepath.Join(r.dir, "tiers")) }

func (r *runner) resetTiers() error {
	d := r.tierDirs()
	for _, p := range []string{d.trace, d.snap} {
		if err := os.RemoveAll(p); err != nil {
			return err
		}
		if err := os.MkdirAll(p, 0o755); err != nil {
			return err
		}
	}
	return nil
}

// invokeSuite runs stbpu-suite with args (whose -o is out) and returns
// the measurement and the document it wrote.
func (r *runner) invokeSuite(ctx context.Context, args []string, out string, limit time.Duration) (sample, []byte, error) {
	if err := os.Remove(out); err != nil && !os.IsNotExist(err) {
		return sample{}, nil, err
	}
	m, err := invoke(ctx, r.suite, args, limit)
	if err != nil {
		return m, nil, err
	}
	doc, err := os.ReadFile(out)
	return m, doc, err
}

func (r *runner) measuredArgs() []string {
	return r.w.suiteArgs(r.seed, filepath.Join(r.dir, "doc.json"), r.tierDirs())
}

// prepare sets up the workload's directory, runs the warm-up rep, and
// fixes the reference digest: the committed one for reference seeds,
// else that of an oracle run.
func (r *runner) prepare(ctx context.Context) error {
	if err := os.RemoveAll(r.dir); err != nil {
		return err
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return err
	}
	if r.w.tiers != noTiers {
		if err := r.resetTiers(); err != nil {
			return err
		}
	}
	m, doc, err := r.invokeSuite(ctx, r.measuredArgs(), filepath.Join(r.dir, "doc.json"), warmupLimit)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", r.w.name, err)
	}
	var d suiteDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("%s warm-up document: %w", r.w.name, err)
	}
	r.cells = d.cells()
	r.limit = time.Duration(timeoutFactor) * m.wall
	if r.limit < minRepLimit {
		r.limit = minRepLimit
	}
	want, ok := r.refs.ref(r.seed, r.w.name)
	if !ok {
		out := filepath.Join(r.dir, "oracle.json")
		_, odoc, err := r.invokeSuite(ctx, r.w.oracleArgs(r.seed, out), out, warmupLimit)
		if err != nil {
			return fmt.Errorf("%s oracle: %w", r.w.name, err)
		}
		if want, err = digest(odoc); err != nil {
			return fmt.Errorf("%s oracle: %w", r.w.name, err)
		}
	}
	r.want = want
	got, err := digest(doc)
	if err != nil {
		return fmt.Errorf("%s warm-up: %w", r.w.name, err)
	}
	if got != want {
		r.errs = append(r.errs, fmt.Sprintf("warm-up output digest %.12s, want %.12s", got, want))
	}
	return nil
}

// rep runs one timed rep. A rep that exits non-zero, times out, or
// writes a document whose digest differs from the reference counts all
// its cells as failed.
func (r *runner) rep(ctx context.Context) {
	err := func() error {
		if r.w.tiers == coldTiers {
			if err := r.resetTiers(); err != nil {
				return err
			}
		}
		probe := hostProbe()
		m, doc, err := r.invokeSuite(ctx, r.measuredArgs(), filepath.Join(r.dir, "doc.json"), r.limit)
		if err != nil {
			return err
		}
		m.probe = probe
		got, err := digest(doc)
		if err != nil {
			return err
		}
		if got != r.want {
			return fmt.Errorf("output digest %.12s, want %.12s", got, r.want)
		}
		layer, err := docLayer(doc)
		if err != nil {
			return err
		}
		r.runs = append(r.runs, m)
		for k, v := range layer {
			r.layer[k] = append(r.layer[k], v)
		}
		r.lastDoc = doc
		return nil
	}()
	r.attempted += r.cells
	if err != nil {
		r.failed += r.cells
		r.ok = append(r.ok, 0)
		r.errs = append(r.errs, err.Error())
		logf("%s rep %d failed: %v", r.w.name, len(r.ok), err)
		return
	}
	r.ok = append(r.ok, 1)
}

func (r *runner) correct() bool { return len(r.errs) == 0 && r.failed == 0 && len(r.runs) > 0 }

// e2e summarizes the timed reps. Timings are in reference-host seconds:
// each rep's is scaled by probeRef over the host-speed probe taken just
// before it (host.go).
func (r *runner) e2e() map[string]summary {
	var wall, cpu, setup, rss []float64
	for _, m := range r.runs {
		scale := probeRef.Seconds() / m.probe.Seconds()
		wall = append(wall, m.wall.Seconds()*scale)
		cpu = append(cpu, m.cpu.Seconds()*scale)
		setup = append(setup, m.setup.Seconds()*scale)
		rss = append(rss, m.peakRSSMB)
	}
	okRatio := 1 - ratio(float64(r.failed), float64(r.attempted))
	return map[string]summary{
		"wall_s":      summarize("s", wall),
		"cpu_s":       summarize("s", cpu),
		"setup_s":     summarize("s", setup),
		"peak_rss_mb": summarize("MB", rss),
		// Pooled over every attempted cell, so one failed rep shows even
		// when the median rep passed.
		"ok_ratio": {Unit: "ratio", Value: okRatio, Q1: okRatio, Q3: okRatio,
			N: len(r.ok), Samples: append([]float64{}, r.ok...)},
	}
}

// hostLayer reports the probe and the timings before scaling.
func (r *runner) hostLayer() map[string]summary {
	var probe, wall, cpu, setup []float64
	for _, m := range r.runs {
		probe = append(probe, float64(m.probe)/1e6)
		wall = append(wall, m.wall.Seconds())
		cpu = append(cpu, m.cpu.Seconds())
		setup = append(setup, m.setup.Seconds())
	}
	return map[string]summary{
		"host.probe_ms":    summarize("ms", probe),
		"host.wall_raw_s":  summarize("s", wall),
		"host.cpu_raw_s":   summarize("s", cpu),
		"host.setup_raw_s": summarize("s", setup),
	}
}

// layerSummaries are the document-derived per-layer metrics over the
// timed reps.
func (r *runner) layerSummaries() map[string]summary {
	units := unitsOf(layerMetrics())
	out := r.hostLayer()
	for k, xs := range r.layer {
		out[k] = summarize(units[k], xs)
	}
	return out
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name      string             `json:"name"`
	Args      []string           `json:"args"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	E2E       map[string]summary `json:"e2e"`
	Layer     map[string]summary `json:"layer"`
}

// report assembles the workload's metrics; traced adds the traced pass,
// the layer probes and the wall-time prediction. Every per-layer metric
// is present, 0 where the workload does not exercise the layer.
func (r *runner) report(ctx context.Context, traced bool) workloadReport {
	rep := workloadReport{Name: r.w.name, Args: r.measuredArgs(), Digest: r.want,
		E2E: r.e2e(), Layer: r.layerSummaries()}
	if traced {
		if err := r.trace(ctx, rep.Layer); err != nil {
			r.errs = append(r.errs, err.Error())
			logf("%s traced pass: %v", r.w.name, err)
		}
	}
	for _, d := range layerMetrics() {
		if _, ok := rep.Layer[d.Name]; !ok {
			rep.Layer[d.Name] = summary{Unit: d.Unit}
		}
	}
	rep.Attempted, rep.Failed, rep.Errors = r.attempted, r.failed, r.errs
	return rep
}

// trace runs the traced pass and the probes and adds their metrics. The
// traced pass must reproduce the timed reps' output digest and store
// counters, or its copy of stbpu-suite's wiring has drifted.
func (r *runner) trace(ctx context.Context, layer map[string]summary) error {
	if r.lastDoc == nil {
		return errors.New("no passing rep to trace against")
	}
	if r.w.tiers == coldTiers {
		if err := r.resetTiers(); err != nil {
			return err
		}
	}
	t, err := tracedPass(ctx, r.w, r.seed, r.suite, r.tierDirs())
	if err != nil {
		return err
	}
	if err := t.writeSpans(filepath.Join(r.dir, "spans.json")); err != nil {
		return err
	}
	got, err := digest(t.raw)
	if err != nil {
		return err
	}
	if got != r.want {
		return fmt.Errorf("traced pass output digest %.12s, want %.12s", got, r.want)
	}
	var last suiteDoc
	if err := json.Unmarshal(r.lastDoc, &last); err != nil {
		return err
	}
	if t.doc.TraceStore != last.TraceStore || t.doc.SnapStore != last.SnapStore {
		return fmt.Errorf("traced pass store counters %+v %+v, timed reps %+v %+v",
			t.doc.TraceStore, t.doc.SnapStore, last.TraceStore, last.SnapStore)
	}
	units := unitsOf(layerMetrics())
	one := func(name string, v float64) { layer[name] = summarize(units[name], []float64{v}) }
	for k, v := range t.layer() {
		one(k, v)
	}
	// The traced pass and the probes run at the host's current speed, so
	// they are held against the unscaled timings.
	wall := layer["host.wall_raw_s"].Value
	one("tracing.overhead_ratio", ratio(t.wall.Seconds(), wall))

	probes, err := probeLayers(ctx, r.w.probe, r.w.records, r.seed, r.dir)
	if err != nil {
		return err
	}
	for k, v := range probes {
		one(k, v)
	}
	pred := predictWall(layer["host.setup_raw_s"].Value, r.w.records, float64(r.cells),
		layer["tracestore.generations"].Value, layer["tracestore.disk_writes"].Value,
		probes["trace.gen_ns_per_record"], probes["sim.replay_ns_per_model_record"],
		probes["trace.stbt_write_ns_per_record"])
	one("predict.wall_s", pred)
	one("predict.error", math.Abs(ratio(pred-wall, wall)))
	return nil
}

// predictWall is the observe-predict loop's model of one rep's wall
// time: set-up plus the generation, replay and spill work the rep did,
// at the probes' serial per-record costs, spread over its cell slots.
// Work outside these layers (the cpu model, snapshots, the wire) is
// deliberately absent, so its share shows up as the prediction error.
func predictWall(setupS float64, records int, cells, generations, spills, genNS, replayNS, writeNS float64) float64 {
	rec := float64(records)
	work := generations*rec*genNS + cells*rec*replayNS + spills*rec*writeNS
	return setupS + work/slots/1e9
}
