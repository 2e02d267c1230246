package harness

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"stbpu/internal/snap"
)

// wireTestSpecs builds a representative trace-major batch: n cells
// across a handful of workloads with populated params, sweeps, and
// locality keys, the shape the suite actually ships to workers.
func wireTestSpecs(n int) []CellSpec {
	workloads := []string{"505.mcf", "531.deepsjeng", "541.leela", "557.xz"}
	specs := make([]CellSpec, n)
	for i := range specs {
		wl := workloads[i%len(workloads)]
		specs[i] = CellSpec{
			Scenario: "tab3_attacks",
			Scope:    "pairs",
			Shard:    i,
			Seed:     ShardSeed(0x5eed, "pairs", i),
			RootSeed: 0x5eed,
			Locality: Locality(wl, 20000),
			Params: Params{
				Records:      20000,
				MaxWorkloads: 8,
				MaxPairs:     12,
				Trials:       40,
				Budget:       4096,
				Bits:         64,
				R:            1.25,
				Sweep:        []float64{0.5, 1, 1.5, 2, 2.5},
				Workload:     wl,
				WorkloadSpec: "spec:browser_tabbed@deadbeef",
			},
		}
	}
	return specs
}

// wireTestMsgs is one frame of every kind, plus the empty-work and
// batch-error shapes: the round-trip cases and the decoder fuzz seeds.
func wireTestMsgs() []struct {
	name string
	msg  wireMsg
} {
	return []struct {
		name string
		msg  wireMsg
	}{
		{"work", wireMsg{
			kind:     wireKindWork,
			seq:      42,
			cells:    wireTestSpecs(5),
			prefetch: []string{"505.mcf@20000", "541.leela@20000"},
		}},
		{"work-empty", wireMsg{kind: wireKindWork, seq: 7}},
		{"results", wireMsg{
			kind: wireKindResults,
			seq:  42,
			results: []CellResult{
				{Shard: 0, Value: json.RawMessage(`{"leak":0.25}`), ElapsedUS: 1234},
				{Shard: 1, Err: "replay diverged", Canceled: true},
				{Shard: 2},
			},
		}},
		{"results-batch-error", wireMsg{
			kind:      wireKindResults,
			seq:       9,
			err:       "trace store unavailable",
			permanent: true,
		}},
		{"heartbeat", wireMsg{kind: wireKindHeartbeat, seq: 3}},
	}
}

func TestWireMsgRoundTrip(t *testing.T) {
	for _, tc := range wireTestMsgs() {
		t.Run(tc.name, func(t *testing.T) {
			payload := encodeWireMsg(&tc.msg)
			if len(payload) == 0 || payload[0] != binMagic {
				t.Fatalf("payload does not start with the binary magic byte: % x", payload[:min(len(payload), 4)])
			}
			got, err := decodeWireMsg(payload)
			if err != nil {
				t.Fatalf("decodeWireMsg: %v", err)
			}
			if !reflect.DeepEqual(*got, tc.msg) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, tc.msg)
			}
		})
	}
}

// TestWireMinElementSizes pins the per-element minimums the decoder
// bounds sequence counts with to the encoders: an empty element encodes
// to exactly its minimum.
func TestWireMinElementSizes(t *testing.T) {
	w := snap.NewWriter(0)
	encodeSpecBin(w, &CellSpec{})
	if n := len(w.Bytes()); n != minSpecBytes {
		t.Errorf("empty spec encodes to %d bytes, minSpecBytes = %d", n, minSpecBytes)
	}
	w = snap.NewWriter(0)
	encodeResultBin(w, &CellResult{})
	if n := len(w.Bytes()); n != minResultBytes {
		t.Errorf("empty result encodes to %d bytes, minResultBytes = %d", n, minResultBytes)
	}
}

// TestWireDecodeRejectsLyingCount: a work frame of 19 bytes claiming
// 2^20 cells fails before the decoder allocates for them (unbounded,
// the count alone cost ~200 MB).
func TestWireDecodeRejectsLyingCount(t *testing.T) {
	frame := []byte{binMagic, binVersion, wireKindWork,
		0, 0, 0, 0, 0, 0, 0, 0, // seq
		0, 0, 0, 0, // prefetch count
		0, 0, 0x10, 0, // cell count, little-endian 2^20
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decodeWireMsg(frame)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decodeWireMsg accepted a frame too short for its cell count")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting the frame allocated %d bytes", grew)
	}
}

func TestWireMsgDecodeErrors(t *testing.T) {
	good := encodeWireMsg(&wireMsg{kind: wireKindWork, seq: 1, cells: wireTestSpecs(1)})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short", []byte{binMagic, binVersion}},
		{"json-not-binary", []byte(`{"seq":1,"cells":[]}`)},
		{"bad-magic", append([]byte{0x00}, good[1:]...)},
		{"bad-version", append([]byte{binMagic, binVersion + 1}, good[2:]...)},
		{"unknown-kind", []byte{binMagic, binVersion, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"trailing-bytes", append(append([]byte(nil), good...), 0xff)},
		{"truncated-body", good[:len(good)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeWireMsg(tc.payload); err == nil {
				t.Fatalf("decodeWireMsg accepted a corrupt payload")
			}
		})
	}
}

// FuzzDecodeWireMsg feeds the bin1 decoder — which parses bytes from
// another process — arbitrary payloads. It must return an error or a
// message, never panic, and an accepted payload must be the message's
// own encoding byte for byte, so re-encoding the message decodes to the
// same message. (Byte equality rather than reflect.DeepEqual: it holds
// for NaN sweep values too.)
func FuzzDecodeWireMsg(f *testing.F) {
	for _, tc := range wireTestMsgs() {
		payload := encodeWireMsg(&tc.msg)
		f.Add(payload)
		for _, n := range []int{0, 3, 11, len(payload) / 2, len(payload) - 1} {
			if n < len(payload) {
				f.Add(payload[:n])
			}
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodeWireMsg(payload)
		if err != nil {
			return
		}
		again := encodeWireMsg(m)
		if !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not its message's encoding:\n got % x\nwant % x", again, payload)
		}
		if _, err := decodeWireMsg(again); err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
	})
}

func TestWireOfferAndNegotiate(t *testing.T) {
	if got := wireOffer(""); len(got) != 1 || got[0] != wireCodecBinary {
		t.Fatalf("wireOffer(\"\") = %v, want [%s]", got, wireCodecBinary)
	}
	if got := wireOffer(wireForceJSON); got != nil {
		t.Fatalf("wireOffer(json) = %v, want nil", got)
	}
	cases := []struct {
		offered []string
		wire    string
		want    string
	}{
		{[]string{wireCodecBinary}, "", wireCodecBinary},
		{[]string{"future9", wireCodecBinary}, "", wireCodecBinary},
		{[]string{"future9"}, "", ""},
		{nil, "", ""},
		{[]string{wireCodecBinary}, wireForceJSON, ""},
	}
	for _, tc := range cases {
		if got := negotiateCodec(tc.offered, tc.wire); got != tc.want {
			t.Fatalf("negotiateCodec(%v, %q) = %q, want %q", tc.offered, tc.wire, got, tc.want)
		}
	}
}

// The benchmarks measure one dispatch round trip for a representative
// 64-cell trace-major batch: coordinator-side encode plus worker-side
// decode, the work the wire adds to every chunk. The binary codec must
// beat JSON by a wide margin (the bench gate records both).

func benchWorkMsg() *wireMsg {
	return &wireMsg{
		kind:     wireKindWork,
		seq:      17,
		cells:    wireTestSpecs(64),
		prefetch: []string{"531.deepsjeng@20000", "557.xz@20000"},
	}
}

func BenchmarkWireSpecsJSON(b *testing.B) {
	msg := benchWorkMsg()
	work := remoteWork{Seq: msg.seq, Cells: msg.cells, Prefetch: msg.prefetch}
	payload, err := json.Marshal(&work)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := json.Marshal(&work)
		if err != nil {
			b.Fatal(err)
		}
		var got remoteWork
		if err := json.Unmarshal(p, &got); err != nil {
			b.Fatal(err)
		}
		if len(got.Cells) != len(work.Cells) {
			b.Fatal("lost cells in transit")
		}
	}
}

func BenchmarkWireSpecsBinary(b *testing.B) {
	msg := benchWorkMsg()
	payload := encodeWireMsg(msg)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := encodeWireMsg(msg)
		got, err := decodeWireMsg(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.cells) != len(msg.cells) {
			b.Fatal("lost cells in transit")
		}
	}
}
