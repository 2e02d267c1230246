package sim

// The snapshot tier's determinism contract, pinned as properties: for
// every model in the lineup (every direction predictor STBPU can carry,
// and both ITTAGE variants), forking a run at a record boundary —
// encoding its state and decoding it into a fresh model — and measuring
// onward is bit-identical to prefix replay, and the parent is not
// perturbed. The fuzz harness additionally guarantees a decoder fed
// arbitrary bytes fails with an error, never a panic or silent
// corruption.

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"stbpu/internal/core"
	"stbpu/internal/snap"
	"stbpu/internal/tage"
	"stbpu/internal/trace"
)

// snapConfig names a model configuration and builds it for a trace's
// token policy.
type snapConfig struct {
	name string
	new  func(sharedTokens bool) Snapshotter
}

// snapConfigs enumerates every model configuration the suite can run:
// the Fig. 3 lineup, STBPU under each alternative direction predictor,
// and the unprotected and STBPU units with an ITTAGE indirect predictor.
func snapConfigs() []snapConfig {
	var cfgs []snapConfig
	for _, k := range Fig3Kinds() {
		cfgs = append(cfgs, snapConfig{k.String(), kindModel(k, core.DirSKLCond)})
	}
	for _, dir := range []core.DirKind{core.DirSKLCond, core.DirTAGE8, core.DirTAGE64, core.DirPerceptron} {
		cfgs = append(cfgs, snapConfig{"stbpu/" + dir.String(), kindModel(KindSTBPU, dir)})
	}
	return append(cfgs,
		snapConfig{"unprotected/SKLCond+ITTAGE", unprotectedITTAGE},
		snapConfig{"stbpu/SKLCond+ITTAGE", stbpuITTAGE})
}

// snapCols builds the shared switch-heavy test trace once per package
// test run.
func snapCols(t testing.TB) (*trace.Columns, trace.Profile) {
	t.Helper()
	p, err := trace.Preset("mysql_128con_50s")
	if err != nil {
		t.Fatal(err)
	}
	p = p.WithRecords(9000)
	cols, err := trace.GenerateColumns(p)
	if err != nil {
		t.Fatal(err)
	}
	return cols, p
}

// replaySegment runs m over cols[lo:hi) and returns the windowed
// result.
func replaySegment(t testing.TB, m Model, cols *trace.Columns, lo, hi int) Result {
	t.Helper()
	res, err := RunColumnsCtx(context.Background(), m, cols.Slice(lo, hi))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// forkAt branches parent at its current record boundary the way the
// snapshot store does: encode its state and decode it into a fresh
// model built by newModel.
func forkAt(t testing.TB, parent Snapshotter, newModel func() Snapshotter) Snapshotter {
	t.Helper()
	child := newModel()
	if err := child.DecodeState(parent.EncodeState()); err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	return child
}

func TestForkAtBoundaryMatchesPrefixReplay(t *testing.T) {
	cols, prof := snapCols(t)
	n := cols.Len()
	boundary := n / 3
	for _, cfg := range snapConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			newModel := func() Snapshotter { return cfg.new(prof.SharedTokens) }

			// Reference: one model, chunked prefix replay, never forked
			// (chunked incremental replay is bit-identical to a single
			// pass — pinned by the sim package's own tests).
			ref := newModel()
			replaySegment(t, ref, cols, 0, boundary)
			want := replaySegment(t, ref, cols, boundary, n)

			// Candidate: replay the prefix, fork at the boundary, and
			// measure the tail on the fork AND on the parent.
			parent := newModel()
			replaySegment(t, parent, cols, 0, boundary)
			fork := forkAt(t, parent, newModel)
			if got := replaySegment(t, fork, cols, boundary, n); got != want {
				t.Errorf("forked tail result diverges:\n got %+v\nwant %+v", got, want)
			}
			if got := replaySegment(t, parent, cols, boundary, n); got != want {
				t.Errorf("parent tail result perturbed by the fork:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestEncodeDecodeRestoreMatchesPrefixReplay(t *testing.T) {
	cols, prof := snapCols(t)
	n := cols.Len()
	boundary := n / 2
	for _, cfg := range snapConfigs() {
		cfg := cfg
		t.Run(cfg.name, func(t *testing.T) {
			warm := cfg.new(prof.SharedTokens)
			replaySegment(t, warm, cols, 0, boundary)
			state := warm.EncodeState()

			// The encoding is a deterministic pure function of model
			// state: re-encoding yields the same bytes.
			if again := warm.EncodeState(); !bytes.Equal(state, again) {
				t.Fatal("EncodeState is not deterministic")
			}

			restored := cfg.new(prof.SharedTokens)
			if err := restored.DecodeState(state); err != nil {
				t.Fatalf("DecodeState: %v", err)
			}
			want := replaySegment(t, warm, cols, boundary, n)
			if got := replaySegment(t, restored, cols, boundary, n); got != want {
				t.Errorf("restored tail result diverges:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

func TestDecodeStateRejectsForeignModelState(t *testing.T) {
	cols, prof := snapCols(t)
	opt := Options{Seed: 7, SharedTokens: prof.SharedTokens}
	warm := New(KindBaseline, opt).(Snapshotter)
	replaySegment(t, warm, cols, 0, 2000)
	state := warm.EncodeState()
	// An STBPU model fed baseline-model bytes must error out, not
	// half-restore: the store keys checkpoints by model fingerprint,
	// but a corrupt or mis-keyed entry must still fail safe.
	other := New(KindSTBPU, opt).(Snapshotter)
	if err := other.DecodeState(state); err == nil {
		t.Error("DecodeState accepted another model's state bytes")
	}
	if err := warm.DecodeState(nil); err == nil {
		t.Error("DecodeState accepted empty state")
	}

	// The indirect-predictor marker guards ITTAGE state in both
	// directions, for the unprotected unit and the STBPU model alike.
	for _, pair := range []struct {
		name          string
		with, without func(sharedTokens bool) Snapshotter
	}{
		{"unprotected", unprotectedITTAGE, kindModel(KindBaseline, core.DirSKLCond)},
		{"stbpu", stbpuITTAGE, kindModel(KindSTBPU, core.DirSKLCond)},
	} {
		with, without := pair.with(prof.SharedTokens), pair.without(prof.SharedTokens)
		replaySegment(t, with, cols, 0, 2000)
		replaySegment(t, without, cols, 0, 2000)
		for _, c := range []struct {
			what  string
			into  Snapshotter
			state []byte
		}{
			{"ITTAGE state into a model without ITTAGE", pair.without(prof.SharedTokens), with.EncodeState()},
			{"state without ITTAGE into an ITTAGE model", pair.with(prof.SharedTokens), without.EncodeState()},
		} {
			err := c.into.DecodeState(c.state)
			if err == nil || !strings.Contains(err.Error(), "indirect-predictor marker") {
				t.Errorf("%s: decoding %s: err = %v, want the marker mismatch", pair.name, c.what, err)
			}
		}
	}
}

// FuzzSnapshotRoundTrip drives every model's decoder with arbitrary
// bytes (must error, never panic) and cross-checks that a valid
// encoding — possibly of a different configuration — either restores
// cleanly or is rejected whole.
func FuzzSnapshotRoundTrip(f *testing.F) {
	cols, prof := snapCols(f)
	cfgs := snapConfigs()
	// Seed the corpus with each configuration's real encoding at a few
	// prefix depths.
	for ci, cfg := range cfgs {
		m := cfg.new(prof.SharedTokens)
		replaySegment(f, m, cols, 0, 1500)
		f.Add(uint8(ci), m.EncodeState())
	}
	f.Add(uint8(0), []byte{})
	f.Add(uint8(3), []byte{0xff, 0x00, 0x41})
	// One seed per state the TAGE and perceptron decoders reject whole.
	for _, c := range unholdableStates(f, cfgs, cols, prof.SharedTokens) {
		f.Add(c.ci, c.data)
	}

	f.Fuzz(func(t *testing.T, ci uint8, data []byte) {
		cfg := cfgs[int(ci)%len(cfgs)]
		m := cfg.new(prof.SharedTokens)
		if err := m.DecodeState(data); err != nil {
			return // rejected whole: fine
		}
		// Accepted state must be internally consistent: the model can
		// encode again and the round trip is stable from here on.
		state := m.EncodeState()
		m2 := cfg.new(prof.SharedTokens)
		if err := m2.DecodeState(state); err != nil {
			t.Fatalf("re-decode of a just-encoded state failed: %v", err)
		}
		if !bytes.Equal(state, m2.EncodeState()) {
			t.Fatal("encode/decode/encode is not a fixed point")
		}
	})
}

// unholdable is a model encoding with one direction-predictor field
// corrupted, and the error its decoder must latch.
type unholdable struct {
	name string
	ci   uint8 // index into snapConfigs
	data []byte
	want string
}

// unholdableStates warms the ST TAGE-SC-L 64KB and perceptron models
// on cols and corrupts one field of each encoding per state the
// packed layouts cannot hold or no replay reaches: a tag wider than the
// 15-bit entry field, an invalid entry with a nonzero tag, an
// old-outcome position that differs from the derived one, and a weight
// outside [-128, 127]. The offsets follow tage's and perceptron's
// EncodeState layouts after the model's token and unit state; each
// case is checked to fail decoding with its error, so a layout change
// that moves a field fails here instead of seeding a different case.
func unholdableStates(t testing.TB, cfgs []snapConfig, cols *trace.Columns, shared bool) []unholdable {
	t.Helper()
	warm := func(name string) (uint8, []byte, int) {
		t.Helper()
		for ci, cfg := range cfgs {
			if cfg.name != name {
				continue
			}
			m := cfg.new(shared)
			replaySegment(t, m, cols, 0, 3000)
			w := snap.NewWriter(1 << 12)
			m.(*core.Model).Unit().EncodeState(w)
			return uint8(ci), m.EncodeState(), 8 + len(w.Bytes()) // ψ, φ, then the unit
		}
		t.Fatalf("no %s configuration", name)
		return 0, nil, 0
	}
	tcfg := tage.Config64KB()
	banks, n := len(tcfg.HistLens), 1<<tcfg.IndexBits
	entry := func(i int) int { return 4 + 1<<tcfg.BimodalBits + 4 + 4 + 7*i } // bank 0's entry i
	position := 4 + 1<<tcfg.BimodalBits + 4 + banks*(4+7*n) + 4 + 1024 + 16 + 24*banks + 4

	tci, tstate, toff := warm("stbpu/" + core.DirTAGE64.String())
	valid, invalid := -1, -1
	for i := 0; i < n; i++ {
		if v := tstate[toff+entry(i)]; v == 1 && valid < 0 {
			valid = i
		} else if v == 0 && invalid < 0 {
			invalid = i
		}
	}
	if valid < 0 || invalid < 0 {
		t.Fatalf("TAGE bank 0 needs a valid and an invalid entry (valid %d, invalid %d)", valid, invalid)
	}
	pci, pstate, poff := warm("stbpu/" + core.DirPerceptron.String())
	cases := []struct {
		unholdable
		corrupt func(b []byte)
	}{
		{unholdable{"TAGE tag wider than the field", tci, tstate, "wider than the 15-bit tag field"}, func(b []byte) {
			binary.LittleEndian.PutUint32(b[toff+entry(valid)+1:], 1<<15)
		}},
		{unholdable{"TAGE invalid entry with a tag", tci, tstate, "invalid entry holds"}, func(b []byte) {
			binary.LittleEndian.PutUint32(b[toff+entry(invalid)+1:], 3)
		}},
		{unholdable{"TAGE position off the derived one", tci, tstate, "recorded history position"}, func(b []byte) {
			pos := binary.LittleEndian.Uint32(b[toff+position:])
			binary.LittleEndian.PutUint32(b[toff+position:], (pos+1)%1024)
		}},
		{unholdable{"perceptron weight out of range", pci, pstate, "outside [-128, 127]"}, func(b []byte) {
			binary.LittleEndian.PutUint16(b[poff+4+4:], uint16(0xff7f)) // row 0's bias: -129
		}},
	}
	out := make([]unholdable, 0, len(cases))
	for _, c := range cases {
		u := c.unholdable
		u.data = append([]byte(nil), u.data...)
		c.corrupt(u.data)
		err := cfgs[u.ci].new(shared).DecodeState(u.data)
		if err == nil || !strings.Contains(err.Error(), u.want) {
			t.Fatalf("%s: decode err = %v, want one containing %q", u.name, err, u.want)
		}
		out = append(out, u)
	}
	return out
}
