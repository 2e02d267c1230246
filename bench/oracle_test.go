package main

import (
	"strings"
	"testing"
)

const sampleDoc = `{
  "suite": "stbpu-suite",
  "seed": 7,
  "workers": 2,
  "elapsed_ms": 812,
  "runs": [
    {
      "scenario": "fig3",
      "seed": 7,
      "workers": 2,
      "params": {"records": 60000},
      "cells": 5,
      "elapsed_ms": 800,
      "result": {"AvgNormalized": [1, 0.91, 0.92, 0.95, 0.99]}
    }
  ],
  "backends": [{"backend": "local", "cells": 5, "retries": 0, "wall_ms": 800}],
  "trace_store": {"hits": 0, "misses": 1, "generations": 1, "evictions": 0, "bytes": 10, "max_bytes": 20},
  "snap_store": {"hits": 0, "misses": 0, "puts": 0, "evictions": 0, "bytes": 0, "max_bytes": 20}
}`

// The normalizer is pinned byte for byte: timing, pool size, backend and
// store fields go, everything else in runs[] stays.
func TestNormalizePinned(t *testing.T) {
	got, err := normalize([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	want := `{"runs":[{"cells":5,"params":{"records":60000},"result":{"AvgNormalized":[1,0.91,0.92,0.95,0.99]},"scenario":"fig3","seed":7}],"seed":7,"suite":"stbpu-suite"}`
	if string(got) != want {
		t.Errorf("normalize =\n%s\nwant\n%s", got, want)
	}
	d, err := digest([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if d != "ecf52001c3d5ee73d00b0d10cddee5b96720cf05ea8f7f8ca299d9bbf2b283a9" {
		t.Errorf("digest = %s", d)
	}
}

func TestDigestIgnoresOnlyVolatileFields(t *testing.T) {
	base, err := digest([]byte(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		old, new string
		same     bool
	}{
		{`"elapsed_ms": 812`, `"elapsed_ms": 9`, true},
		{`"elapsed_ms": 800`, `"elapsed_ms": 1`, true},
		{`"workers": 2,
  "elapsed`, `"workers": 1,
  "elapsed`, true},
		{`"workers": 2,
      "params"`, `"workers": 1,
      "params"`, true},
		{`"wall_ms": 800`, `"wall_ms": 3`, true},
		{`"generations": 1`, `"generations": 0`, true},
		{`"puts": 0`, `"puts": 20`, true},
		{`0.99]`, `0.98]`, false},
		{`"cells": 5,
      "elapsed`, `"cells": 4,
      "elapsed`, false},
		{`{"records": 60000}`, `{"records": 60001}`, false},
		{`"seed": 7,
  "workers"`, `"seed": 8,
  "workers"`, false},
	} {
		doc := strings.Replace(sampleDoc, c.old, c.new, 1)
		if doc == sampleDoc {
			t.Fatalf("edit %q matched nothing", c.old)
		}
		d, err := digest([]byte(doc))
		if err != nil {
			t.Fatal(err)
		}
		if (d == base) != c.same {
			t.Errorf("edit %q -> %q: digest unchanged = %t, want %t", c.old, c.new, d == base, c.same)
		}
	}
}

func TestNormalizeRejectsMalformed(t *testing.T) {
	for _, doc := range []string{``, `[]`, `{"suite": "stbpu-suite"}`, `{"runs": {}}`} {
		if _, err := normalize([]byte(doc)); err == nil {
			t.Errorf("normalize(%q) succeeded", doc)
		}
	}
}

func TestRefsCoverEveryWorkload(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range refSeeds {
		for _, w := range workloads {
			if d, ok := refs.ref(seed, w.name); !ok || len(d) != 64 {
				t.Errorf("seed %d workload %s: reference digest %q", seed, w.name, d)
			}
		}
	}
}
