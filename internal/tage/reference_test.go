package tage

// The live kernel against the previous one (refkernel_test.go), stepped
// side by side over the conditional branches of two presets: every
// prediction, TageMispredicts and, at checkpoints, the EncodeState
// bytes must match, for both configurations and under both the legacy
// and a keyed hasher. The run flushes both kernels partway and, later,
// swaps the live kernel for a copy decoded from its own encoding.

import (
	"bytes"
	"fmt"
	"testing"

	"stbpu/internal/remap"
	"stbpu/internal/rng"
	"stbpu/internal/snap"
	"stbpu/internal/trace"
)

// keyedHasher is core's ST hasher rebuilt over remap.Mixer: Rt over a
// bank-separated history for the tagged banks, R3 for the tables, both
// keyed by psi. The test moves psi per entity, as token switches do.
type keyedHasher struct{ psi uint32 }

func (k *keyedHasher) BankIndexTags(pc uint64, folds []Fold, indexBits, tagBits uint, idx, tag []uint32) {
	for b, f := range folds {
		idx[b], tag[b] = remap.Mixer{}.Rt(k.psi, pc, f.Idx^f.Tag<<13^uint64(b)<<27, indexBits, tagBits)
	}
}

func (k *keyedHasher) TableIndex(pc uint64, fold uint64, bits uint) uint32 {
	return remap.Mixer{}.R3(k.psi, pc^(fold<<3)) & (1<<bits - 1)
}

// refKeyedHasher is keyedHasher behind the previous per-bank interface.
type refKeyedHasher struct{ *keyedHasher }

func (k refKeyedHasher) BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	return remap.Mixer{}.Rt(k.psi, pc, fIdx^fTag<<13^uint64(bank)<<27, indexBits, tagBits)
}

// condBranch is one conditional branch of a preset trace and the
// entity that ran it.
type condBranch struct {
	pc    uint64
	taken bool
	pid   uint32
}

// presetConds returns the conditional branches of n records of a preset.
func presetConds(t testing.TB, name string, n int) []condBranch {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	var out []condBranch
	for _, rec := range tr.Records {
		if rec.Kind == trace.KindCond {
			out = append(out, condBranch{rec.PC, rec.Taken, rec.PID})
		}
	}
	return out
}

// encodeTAGE returns a kernel's EncodeState bytes.
func encodeTAGE(enc func(*snap.Writer)) []byte {
	w := snap.NewWriter(1 << 16)
	enc(w)
	return w.Bytes()
}

func TestMatchesReferenceKernel(t *testing.T) {
	const records = 100_000
	for _, preset := range []string{"505.mcf", "apache2_prefork_c128"} {
		conds := presetConds(t, preset, records)
		for _, base := range []Config{Config8KB(), Config64KB()} {
			for _, keyed := range []bool{false, true} {
				name := fmt.Sprintf("%s/%s/legacy", preset, base.Name)
				if keyed {
					name = fmt.Sprintf("%s/%s/keyed", preset, base.Name)
				}
				t.Run(name, func(t *testing.T) {
					stepAgainstReference(t, base, keyed, conds)
				})
			}
		}
	}
}

// stepAgainstReference runs conds through the live and the reference
// kernel and fails at the first difference.
func stepAgainstReference(t *testing.T, cfg Config, keyed bool, conds []condBranch) {
	key := &keyedHasher{}
	var refH refHasher = refLegacyHasher{}
	if keyed {
		cfg.Hasher = key
		refH = refKeyedHasher{key}
	}
	live, ref := New(cfg), refNew(cfg, refH)
	n := len(conds)
	flushAt, decodeAt := n/3, 2*n/3
	check := func(i int, when string) {
		t.Helper()
		got, want := encodeTAGE(live.EncodeState), encodeTAGE(ref.EncodeState)
		if !bytes.Equal(got, want) {
			t.Fatalf("branch %d (%s): EncodeState differs (%d vs %d bytes, first difference at byte %d)",
				i, when, len(got), len(want), firstDiff(got, want))
		}
	}
	for i, c := range conds {
		if keyed {
			s := uint64(c.pid)
			key.psi = uint32(rng.SplitMix64(&s))
		}
		switch i {
		case flushAt:
			live.Flush()
			ref.Flush()
			check(i, "after Flush")
		case decodeAt:
			state := encodeTAGE(live.EncodeState)
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
			if got, want := live.Predict(c.pc), ref.Predict(c.pc); got != want {
				t.Fatalf("branch %d (pc %#x): predicted %v, reference %v", i, c.pc, got, want)
			}
		}
		live.Update(c.pc, c.taken)
		ref.Update(c.pc, c.taken)
		if live.TageMispredicts != ref.TageMispredicts {
			t.Fatalf("branch %d: TageMispredicts %d, reference %d", i, live.TageMispredicts, ref.TageMispredicts)
		}
		if i%5000 == 4999 {
			check(i, "checkpoint")
		}
	}
	check(n, "end")
	if ref.TageMispredicts == 0 {
		t.Fatal("the run never mispredicted through a tagged bank; the comparison is vacuous")
	}
}

// firstDiff is the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
