package main

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"

	"stbpu/internal/experiments"
	"stbpu/internal/harness"
)

// tierMode selects how a workload uses the persistent trace and snapshot
// tiers (-trace-dir -trace-mmap -snap-dir).
type tierMode int

const (
	noTiers   tierMode = iota
	coldTiers          // fresh empty directories on every rep: the write side
	warmTiers          // directories primed by the warm-up rep: the read side
)

// slots is how many cells one invocation runs at once: -workers 2
// locally, two exec workers of one cell each on fleet-exec. It matches
// the 2-CPU reference host, so load stays within nproc.
const slots = 2

// workload is one stbpu-suite invocation shape. Each stresses different
// layers; sizes are chosen so one rep takes about a second on the
// reference host, which lets a short run hold enough reps for a stable
// median.
type workload struct {
	name      string
	why       string
	scenarios []string // -run filters; nil runs the whole suite
	records   int
	quick     bool
	tiers     tierMode
	exec      bool // -backend exec with two single-slot workers
	// probe is the first trace key the workload's first scenario (in
	// RunAll's name order) requests; the layer probes replay it.
	probe string
}

var workloads = []workload{
	{
		name:      "replay",
		why:       "trace-major columnar replay of the five Fig. 3 models plus defense and ITTAGE lineups; in-memory traces, no cpu model, no tiers, no wire",
		scenarios: []string{"fig3", "defense-accuracy", "ittage"},
		records:   60_000,
		probe:     "505.mcf",
	},
	{
		name:      "pipeline",
		why:       "the cpu cycle model with caches on the AoS path: 196 coarse cells on 2 slots, so slow cells set the wall time; no trace-major replay, tiers or wire",
		scenarios: []string{"fig4", "fig5"},
		records:   15_000,
		probe:     "fotonik3d",
	},
	{
		name:      "tiers-cold",
		why:       "write side of the persistent tiers: every rep generates and fsyncs 10 STBT v2 trace spills and 20 snapshot spills into empty directories",
		scenarios: []string{"ittage", "warmup", "workloads"},
		records:   200_000,
		tiers:     coldTiers,
		probe:     "chrome-1jetstream",
	},
	{
		name:      "tiers-warm",
		why:       "read side of the same tiers: 10 mmap hits and no generation, so faster reads bought with slower writes show against tiers-cold",
		scenarios: []string{"ittage", "warmup", "workloads"},
		records:   200_000,
		tiers:     warmTiers,
		probe:     "chrome-1jetstream",
	},
	{
		name:    "fleet-exec",
		why:     "all 414 quick-scale cells through two exec subprocess workers: worker spawn and handshake, bin1 wire frames and exec scheduling, which no local workload uses",
		records: 20_000,
		quick:   true,
		exec:    true,
		probe:   "505.mcf",
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// tierDirs are a workload's persistent tier directories.
type tierDirs struct{ trace, snap string }

func newTierDirs(base string) tierDirs {
	return tierDirs{trace: filepath.Join(base, "trace"), snap: filepath.Join(base, "snap")}
}

// scaleArgs are the scenario selection and sizing flags shared by the
// measured and the oracle invocation.
func (w workload) scaleArgs(seed uint64) []string {
	a := []string{"-seed", strconv.FormatUint(seed, 10)}
	if len(w.scenarios) > 0 {
		a = append(a, "-run", strings.Join(w.scenarios, ","))
	}
	if w.quick {
		a = append(a, "-quick")
	}
	return append(a, "-records", strconv.Itoa(w.records))
}

// suiteArgs is the measured invocation.
func (w workload) suiteArgs(seed uint64, out string, d tierDirs) []string {
	a := append(w.scaleArgs(seed), "-v", "-o", out)
	if w.exec {
		// The coordinator forwards -workers=1 to each worker, so two
		// cells run at once.
		a = append(a, "-backend", "exec", "-exec-workers", strconv.Itoa(slots), "-workers", "1")
	} else {
		a = append(a, "-workers", strconv.Itoa(slots))
	}
	if w.tiers != noTiers {
		a = append(a, "-trace-dir", d.trace, "-trace-mmap", "-snap-dir", d.snap)
	}
	return a
}

// oracleArgs is the reference invocation for seeds without a committed
// digest: in-process, model-major, no snapshots and no tiers, so it
// shares none of the scheduling or tier code the measured run uses.
func (w workload) oracleArgs(seed uint64, out string) []string {
	return append(w.scaleArgs(seed), "-v", "-o", out, "-workers", strconv.Itoa(slots),
		"-backend", "local", "-trace-major=false", "-snapshots=false")
}

// params are the harness parameters stbpu-suite derives from scaleArgs.
func (w workload) params() harness.Params {
	p := harness.Params{Records: w.records}
	if w.quick {
		p = p.Merged(experiments.QuickScale().Params())
	}
	return p
}
