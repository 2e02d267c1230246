package tage

import (
	"encoding/binary"
	"strings"
	"testing"

	"stbpu/internal/snap"
)

// Byte offsets into EncodeState's layout, for the tests that corrupt
// one field: a length-prefixed bimodal table, the bank count, then per
// bank a length prefix and 7-byte entries (valid, 32-bit tag, ctr,
// useful); then the ring, histPos, histLen, three folded registers per
// bank, and the length-prefixed bank and SC old-outcome positions.

// entryOffset is the offset of bank b's entry i.
func entryOffset(cfg Config, b, i int) int {
	n := 1 << cfg.IndexBits
	return 4 + 1<<cfg.BimodalBits + 4 + b*(4+7*n) + 4 + 7*i
}

// histPosOffset is the offset of histPos, after the banks and the ring.
func histPosOffset(cfg Config) int {
	return entryOffset(cfg, len(cfg.HistLens), 0) - 4 + 4 + maxHistoryBits
}

// positionOffset is the offset of bank b's recorded old-outcome
// position, after histPos, histLen, the folded registers and the
// positions' length prefix.
func positionOffset(cfg Config, b int) int {
	return histPosOffset(cfg) + 16 + 24*len(cfg.HistLens) + 4 + 4*b
}

// trainedState returns a 64KB predictor's encoding after a stream that
// fills part of every bank, and the predictor.
func trainedState(t *testing.T) (*Predictor, []byte) {
	t.Helper()
	p := New(Config64KB())
	pcs, taken := benchStream(20_000)
	for i := range pcs {
		p.Predict(pcs[i])
		p.Update(pcs[i], taken[i])
	}
	w := snap.NewWriter(1 << 16)
	p.EncodeState(w)
	return p, w.Bytes()
}

func TestDecodeStateRoundTrips(t *testing.T) {
	p, state := trainedState(t)
	q := New(p.Config())
	r := snap.NewReader(state)
	q.DecodeState(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	w := snap.NewWriter(len(state))
	q.EncodeState(w)
	if string(w.Bytes()) != string(state) {
		t.Fatal("decode/encode is not the identity on a trained state")
	}
}

// TestDecodeStateRejectsUnholdableStates corrupts one field of a
// trained encoding per case and requires DecodeState to latch an error
// naming it: states the packed entries cannot hold, and positions no
// replay reaches.
func TestDecodeStateRejectsUnholdableStates(t *testing.T) {
	p, state := trainedState(t)
	cfg := p.Config()
	n := 1 << cfg.IndexBits
	valid, invalid := -1, -1
	for s, e := range p.tagged[:n] {
		if e.vtag&validBit != 0 && valid < 0 {
			valid = s
		}
		if e.vtag&validBit == 0 && invalid < 0 {
			invalid = s
		}
	}
	if valid < 0 || invalid < 0 {
		t.Fatalf("bank 0 needs a valid and an invalid entry (valid %d, invalid %d)", valid, invalid)
	}
	for _, c := range []struct {
		name, want string
		corrupt    func(b []byte)
	}{
		{"tag wider than the field", "wider than the 15-bit tag field", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entryOffset(cfg, 0, valid)+1:], validBit)
		}},
		{"invalid entry with a tag", "invalid entry holds", func(b []byte) {
			binary.LittleEndian.PutUint32(b[entryOffset(cfg, 0, invalid)+1:], 7)
		}},
		{"invalid entry with a counter", "invalid entry holds", func(b []byte) {
			b[entryOffset(cfg, 0, invalid)+5] = 0xff
		}},
		{"invalid entry with usefulness", "invalid entry holds", func(b []byte) {
			b[entryOffset(cfg, 0, invalid)+6] = 1
		}},
		{"position off the derived one", "recorded history position", func(b []byte) {
			off := positionOffset(cfg, 3)
			pos := binary.LittleEndian.Uint32(b[off:])
			binary.LittleEndian.PutUint32(b[off:], (pos+1)%maxHistoryBits)
		}},
		{"history position outside the ring", "outside the 1024-outcome ring", func(b []byte) {
			binary.LittleEndian.PutUint64(b[histPosOffset(cfg):], maxHistoryBits)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			bad := append([]byte(nil), state...)
			c.corrupt(bad)
			r := snap.NewReader(bad)
			New(cfg).DecodeState(r)
			if err := r.Done(); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one containing %q", err, c.want)
			}
		})
	}
}

func TestNewPanicsOnWideTags(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 16 tag bits, wider than the entry's tag field")
		}
	}()
	cfg := Config8KB()
	cfg.TagBits = 16
	New(cfg)
}
