package main

import (
	"math"
	"testing"
	"time"
)

func TestCellElapsed(t *testing.T) {
	for line, want := range map[string]time.Duration{
		"cell fig3/0 seed=0x1 backend=local 189.448213ms":       189448213 * time.Nanosecond,
		"cell covert/1 seed=0xab backend=exec 560µs":            560 * time.Microsecond,
		"cell defense-accuracy/2 seed=0xda backend=local 624ns": 624,
		"cell warmup/3 seed=0x2 backend=local 1.5s":             1500 * time.Millisecond,
	} {
		if got, ok := cellElapsed(line); !ok || got != want {
			t.Errorf("cellElapsed(%q) = %v, %t; want %v", line, got, ok, want)
		}
	}
	if _, ok := cellElapsed("remote: listening on 127.0.0.1:1"); ok {
		t.Error("non-cell line parsed")
	}
}

func TestDocLayer(t *testing.T) {
	doc := `{
  "runs": [
    {"scenario": "fig3", "cells": 10, "elapsed_ms": 1500,
     "result": {"Rows": [], "AvgNormalized": [1, 0.8, 0.85, 0.9, 0.98]}},
    {"scenario": "fig4", "cells": 8, "elapsed_ms": 500,
     "result": {"Rows": [], "Avg": [{"NormIPC": 0.95}, {"NormIPC": 0.97}, {"NormIPC": 0.93}, {"NormIPC": 0.95}]}}
  ],
  "backends": [{"backend": "exec", "cells": 18, "retries": 1, "wall_ms": 2000,
                "wire_json_bytes": 100, "wire_binary_bytes": 800}],
  "trace_store": {"hits": 3, "misses": 1, "generations": 1, "evictions": 0,
                  "disk_writes": 1, "mmap_hits": 2, "bytes_mapped": 2097152, "bytes": 1048576, "max_bytes": 9},
  "snap_store": {"hits": 0, "misses": 0, "puts": 20, "evictions": 0, "disk_writes": 20, "bytes": 0, "max_bytes": 9}
}`
	m, err := docLayer([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	for k, want := range map[string]float64{
		"tracestore.hits":              3,
		"tracestore.hit_ratio":         0.75,
		"tracestore.resident_mb":       1,
		"tracestore.mapped_mb":         2,
		"tracestore.mmap_hits":         2,
		"snapstore.puts":               20,
		"snapstore.disk_writes":        20,
		"snapstore.hit_ratio":          0,
		"backend.wall_s":               2,
		"backend.retries":              1,
		"wire.bytes_per_cell":          50,
		"scenario.fig3.wall_s":         1.5,
		"scenario.fig4.cells":          8,
		"model.stbpu_oae_norm":         0.98,
		"model.flush_oae_norm_min":     0.8,
		"model.oae_err_vs_paper":       0.01,
		"model.stbpu_ipc_norm":         0.95,
		"model.ipc_shortfall_vs_paper": 0.01,
	} {
		if !near(m[k], want) {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
	for k := range m {
		known := false
		for _, d := range layerMetrics() {
			known = known || d.Name == k
		}
		if !known {
			t.Errorf("docLayer reports %s, which is not in the catalog", k)
		}
	}
}

// A rep measured while the probe ran twice as slow as on the reference
// host reports half its raw timings; the raw values stay in host.*.
func TestE2EScalesByProbe(t *testing.T) {
	r := &runner{runs: []sample{
		{wall: 2 * time.Second, cpu: 3 * time.Second, setup: 4 * time.Millisecond, peakRSSMB: 50, probe: 2 * probeRef},
		{wall: 1 * time.Second, cpu: 1 * time.Second, setup: 1 * time.Millisecond, peakRSSMB: 50, probe: probeRef},
		{wall: 4 * time.Second, cpu: 4 * time.Second, setup: 4 * time.Millisecond, peakRSSMB: 60, probe: 4 * probeRef},
	}, ok: []float64{1, 1, 1}, attempted: 30}
	e := r.e2e()
	for k, want := range map[string]float64{"wall_s": 1, "cpu_s": 1, "setup_s": 0.001, "peak_rss_mb": 50, "ok_ratio": 1} {
		if got := e[k].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, got, want)
		}
	}
	h := r.hostLayer()
	if h["host.wall_raw_s"].Value != 2 || h["host.probe_ms"].Value != 2*float64(probeRef)/1e6 {
		t.Errorf("host layer = %+v", h)
	}
}

func TestHostProbeWorkIsFixed(t *testing.T) {
	a := make([]uint32, probeEntries)
	b := make([]uint32, probeEntries)
	if walk(a, 7, 100_000) != walk(b, 7, 100_000) {
		t.Error("two walks over zeroed tables differ")
	}
	if hostProbe() <= 0 {
		t.Error("probe took no time")
	}
}

func TestPredictWall(t *testing.T) {
	// 0.5 s set-up + (2 gens×1000×100 ns + 10 cells×1000×50 ns + 1 spill×1000×20 ns) / 2 slots.
	got := predictWall(0.5, 1000, 10, 2, 1, 100, 50, 20)
	if want := 0.5 + (2e5+5e5+2e4)/2/1e9; math.Abs(got-want) > 1e-12 {
		t.Errorf("predictWall = %v, want %v", got, want)
	}
}
