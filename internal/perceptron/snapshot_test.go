package perceptron

import (
	"encoding/binary"
	"strings"
	"testing"

	"stbpu/internal/snap"
)

// weightOffset is the offset of row r's weight j in EncodeState's
// layout: the row count, then per row a length prefix and one int16
// per weight.
func weightOffset(cfg Config, r, j int) int {
	return 4 + r*(4+2*(cfg.HistoryLen+1)) + 4 + 2*j
}

// TestDecodeStateRejectsOutOfRangeWeights requires DecodeState to
// reject, whole, a weight the 8-bit storage cannot hold, and to keep
// the extremes it can.
func TestDecodeStateRejectsOutOfRangeWeights(t *testing.T) {
	cfg := DefaultConfig()
	p := New(cfg)
	train(p, 2000, func(i int) (uint64, bool) { return 0x401000 + uint64(i%64)*4, i%3 != 0 })
	w := snap.NewWriter(1 << 16)
	p.EncodeState(w)
	state := w.Bytes()
	for _, c := range []struct {
		v  int16
		ok bool
	}{{127, true}, {-128, true}, {128, false}, {-129, false}, {0x7fff, false}} {
		bad := append([]byte(nil), state...)
		binary.LittleEndian.PutUint16(bad[weightOffset(cfg, 5, 7):], uint16(c.v))
		r := snap.NewReader(bad)
		New(cfg).DecodeState(r)
		err := r.Done()
		if c.ok && err != nil {
			t.Errorf("weight %d: %v", c.v, err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "outside [-128, 127]")) {
			t.Errorf("weight %d: err = %v, want the range error", c.v, err)
		}
	}
}
