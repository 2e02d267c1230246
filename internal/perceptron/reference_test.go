package perceptron

// The live kernel against the previous one (refkernel_test.go), stepped
// side by side over the conditional branches of two presets: every
// prediction and, at checkpoints, the EncodeState bytes must match,
// under the legacy row hash and a keyed one, at the default geometry
// and at the widest history. The run flushes both kernels partway and,
// later, swaps the live kernel for a copy decoded from its own
// encoding.

import (
	"bytes"
	"fmt"
	"testing"

	"stbpu/internal/remap"
	"stbpu/internal/rng"
	"stbpu/internal/snap"
	"stbpu/internal/trace"
)

// presetConds returns the conditional branches of n records of a
// preset, each with the entity that ran it.
func presetConds(t testing.TB, name string, n int) (pcs []uint64, taken []bool, pids []uint32) {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range tr.Records {
		if rec.Kind == trace.KindCond {
			pcs = append(pcs, rec.PC)
			taken = append(taken, rec.Taken)
			pids = append(pids, rec.PID)
		}
	}
	return pcs, taken, pids
}

func encodePerceptron(enc func(*snap.Writer)) []byte {
	w := snap.NewWriter(1 << 16)
	enc(w)
	return w.Bytes()
}

func TestMatchesReferenceKernel(t *testing.T) {
	const records = 100_000
	wide := Config{TableBits: 8, HistoryLen: 64}
	saturated := false
	for _, preset := range []string{"505.mcf", "apache2_prefork_c128"} {
		pcs, taken, pids := presetConds(t, preset, records)
		for _, geom := range []struct {
			name string
			cfg  Config
		}{{"default", DefaultConfig()}, {"wide", wide}} {
			for _, keyed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/legacy", preset, geom.name)
				if keyed {
					name = fmt.Sprintf("%s/%s/keyed", preset, geom.name)
				}
				t.Run(name, func(t *testing.T) {
					saturated = stepAgainstReference(t, geom.cfg, keyed, pcs, taken, pids) || saturated
				})
			}
		}
	}
	if !saturated {
		t.Fatal("no weight reached saturation in any run; the clamp went untested")
	}
}

// stepAgainstReference runs the branches through the live and the
// reference kernel and fails at the first difference. The keyed row
// hash is remap.Mixer's Rp under a per-entity psi, as the ST model's.
// It reports whether a trained row ever held a saturated weight.
func stepAgainstReference(t *testing.T, cfg Config, keyed bool, pcs []uint64, taken []bool, pids []uint32) (saturated bool) {
	var psi uint32
	if keyed {
		cfg.Index = func(pc uint64) uint32 { return remap.Mixer{}.Rp(psi, pc) }
	}
	live, ref := New(cfg), refNew(cfg)
	n := len(pcs)
	flushAt, decodeAt := n/3, 2*n/3
	check := func(i int, when string) {
		t.Helper()
		if got, want := encodePerceptron(live.EncodeState), encodePerceptron(ref.EncodeState); !bytes.Equal(got, want) {
			t.Fatalf("branch %d (%s): EncodeState differs (%d vs %d bytes)", i, when, len(got), len(want))
		}
	}
	for i, pc := range pcs {
		if keyed {
			s := uint64(pids[i])
			psi = uint32(rng.SplitMix64(&s))
		}
		switch i {
		case flushAt:
			live.Flush()
			ref.Flush()
			check(i, "after Flush")
		case decodeAt:
			state := encodePerceptron(live.EncodeState)
			restored := New(cfg)
			r := snap.NewReader(state)
			restored.DecodeState(r)
			if err := r.Done(); err != nil {
				t.Fatalf("branch %d: decoding the live kernel's own state: %v", i, err)
			}
			live = restored
			check(i, "after a decode round trip")
		}
		// Every 997th branch trains without its Predict, the stash
		// fallback path.
		if i%997 != 996 {
			if got, want := live.Predict(pc), ref.Predict(pc); got != want {
				t.Fatalf("branch %d (pc %#x): predicted %v, reference %v", i, pc, got, want)
			}
		}
		live.Update(pc, taken[i])
		ref.Update(pc, taken[i])
		if i%5000 == 4999 {
			check(i, "checkpoint")
		}
		if !saturated {
			for _, w := range ref.weights[ref.lastIdx] {
				saturated = saturated || w == weightMax || w == -weightMax-1
			}
		}
	}
	check(n, "end")
	return saturated
}
