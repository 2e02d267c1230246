package main

import (
	"io"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ok_ratio", Better: "higher", Bound: 0.001}
	setup := metricDef{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.001}
	s := func(xs ...float64) summary { return summarize("s", xs) }
	for _, c := range []struct {
		name string
		def  metricDef
		a, b summary
		want string
	}{
		{"same", lower, s(1, 1.01, 0.99), s(1, 1.01, 0.99), verdictWithin},
		{"slightly slower", lower, s(1, 1.01, 0.99), s(1.05, 1.06, 1.04), verdictWithin},
		{"slower", lower, s(1, 1.01, 0.99), s(1.2, 1.21, 1.19), verdictWorse},
		{"faster", lower, s(1.2, 1.21, 1.19), s(1, 1.01, 0.99), verdictBetter},
		{"noisy", lower, s(1, 2, 0.5, 1.5), s(1.2, 1.21, 1.19), verdictUnresolved},
		{"noisy but separated", lower, s(2, 4, 3, 5), s(1, 1.1, 0.9), verdictBetter},
		{"higher is better, drop", higher, s(1, 1, 1), s(0.99, 0.99, 0.99), verdictWorse},
		{"higher is better, rise", higher, s(0.99, 0.99, 0.99), s(1, 1, 1), verdictBetter},
		{"setup under the floor", setup, s(0.002, 0.002, 0.002), s(0.0028, 0.0028, 0.0028), verdictWithin},
		{"setup over the floor", setup, s(0.002, 0.002, 0.002), s(0.0032, 0.0032, 0.0032), verdictWorse},
		{"setup over the share", setup, s(0.05, 0.05, 0.05), s(0.07, 0.07, 0.07), verdictWorse},
		{"no samples", lower, s(), s(1), verdictMissing},
	} {
		if got, _ := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(wall float64, hits float64, failed int) setDoc {
		rep := workloadReport{Name: "replay", Digest: "abc", Attempted: 10, Failed: failed,
			E2E: map[string]summary{}, Layer: map[string]summary{}}
		for _, d := range e2eMetrics {
			rep.E2E[d.Name] = summarize(d.Unit, []float64{1, 1, 1})
		}
		rep.E2E["wall_s"] = summarize("s", []float64{wall, wall, wall})
		rep.Layer["tracestore.hits"] = summarize("count", []float64{hits})
		rep.Layer["trace.gen_ns_per_record"] = summarize("ns", []float64{hits * 10})
		return setDoc{Env: env{Seed: 1}, Workloads: []workloadReport{rep}}
	}
	if !compareSets(mk(1, 5, 0), mk(1.05, 5, 0), io.Discard) {
		t.Error("sets within bounds disagree")
	}
	if compareSets(mk(1, 5, 0), mk(1.5, 5, 0), io.Discard) {
		t.Error("a 50% slower set agrees")
	}
	if compareSets(mk(1, 5, 0), mk(1, 6, 0), io.Discard) {
		t.Error("sets with different exact counts agree")
	}
	if compareSets(mk(1, 5, 0), mk(1, 5, 3), io.Discard) {
		t.Error("a set with failed cells agrees")
	}
	other := mk(1, 6, 0)
	other.Env.Seed = 2
	if !compareSets(mk(1, 5, 0), other, io.Discard) {
		t.Error("exact values compared across seeds")
	}
	missing := mk(1, 5, 0)
	missing.Workloads = nil
	if compareSets(mk(1, 5, 0), missing, io.Discard) {
		t.Error("a set missing a workload agrees")
	}
}
