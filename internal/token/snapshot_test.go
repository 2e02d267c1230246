package token

import (
	"runtime"
	"testing"

	"stbpu/internal/snap"
)

// TestDecodeStateRejectsCountsTheInputCannotHold feeds the decoder entity
// counts far larger than the bytes that follow them, as a corrupt spill
// can. It must fail before allocating for them: a count near the codec's
// 1<<28 length bound would otherwise cost gigabytes.
func TestDecodeStateRejectsCountsTheInputCannotHold(t *testing.T) {
	const huge = 1 << 20
	for _, tc := range []struct {
		name          string
		keys, records int
	}{
		{"keys", huge, 0},
		{"records", 0, huge},
	} {
		w := snap.NewWriter(128)
		for i := 0; i < 8; i++ { // RNG state and re-randomization stats
			w.U64(uint64(i + 1))
		}
		w.Len(tc.keys)
		if tc.keys == 0 {
			w.Len(tc.records)
		}
		w.U64(0) // a few bytes of tail, far short of either count
		m := NewManager(1, Derive(DefaultR))
		r := snap.NewReader(w.Bytes())

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.DecodeState(r)
		runtime.ReadMemStats(&after)
		if r.Err() == nil {
			t.Errorf("%s: decode accepted a count of %d with %d bytes left", tc.name, huge, 8)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode allocated %d bytes for an impossible count", tc.name, grew)
		}
	}
}
