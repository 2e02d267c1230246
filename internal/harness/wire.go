package harness

// Wire codec: both wire backends frame messages as a 4-byte big-endian
// payload length followed by the payload. Payloads are JSON by default
// — every peer speaks it — and switch to a compact binary encoding
// built on internal/snap when both ends negotiate it in the
// hello/welcome handshake (exec stdio and remote TCP alike). Bare/old
// workers never advertise the codec and simply stay on JSON; the
// handshake frames themselves are always JSON so the two ends can
// disagree about everything except how to disagree. A binary payload
// starts with a magic byte no JSON payload can start with, so a
// decoder can reject codec confusion loudly, and carries a version
// byte so future revisions can coexist on one fleet.
//
// One message shape serves both wires (work in, results/heartbeat
// out); the exec stdio wire has no sequence numbers and leaves seq 0.
// CellResult values stay wire-encoded JSON inside the binary frame —
// the payload bytes a worker computed are forwarded verbatim, so
// result byte-identity across codecs is structural, not coincidental.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"stbpu/internal/snap"
)

// wireCodecBinary is the name the binary codec goes by in hello
// (advertised) and welcome (selected) handshake frames. JSON is the
// unnamed default and never appears in a handshake.
const wireCodecBinary = "bin1"

// wireForceJSON is the Wire config value (ExecBackend.Wire,
// RemoteBackend.Wire, WorkerOptions.Wire) that pins a peer to JSON
// frames, for mixed-fleet tests and debugging; empty means negotiate.
const wireForceJSON = "json"

const (
	binMagic   = 0xB5 // first payload byte; JSON payloads start with '{'
	binVersion = 1
)

// Binary message kinds.
const (
	wireKindWork      = 1 // coordinator → worker: cells + prefetch hints (remote only)
	wireKindResults   = 2 // worker → coordinator: results or batch error
	wireKindHeartbeat = 3 // worker → coordinator: liveness (remote wire)
)

// wireMsg is the codec-neutral form of one frame after the handshake.
type wireMsg struct {
	kind      byte
	seq       uint64
	cells     []CellSpec
	prefetch  []string
	results   []CellResult
	err       string
	permanent bool
}

// wireOffer returns the codecs a peer advertises in its hello frame
// under the given Wire config value.
func wireOffer(wire string) []string {
	if wire == wireForceJSON {
		return nil
	}
	return []string{wireCodecBinary}
}

// negotiateCodec picks the frame codec from a hello's advertised list:
// the binary codec when both ends allow it, else JSON ("").
func negotiateCodec(offered []string, wire string) string {
	if wire == wireForceJSON {
		return ""
	}
	for _, c := range offered {
		if c == wireCodecBinary {
			return wireCodecBinary
		}
	}
	return ""
}

// wireStats counts frame payload bytes per codec, both directions;
// wire backends report the totals in BackendStats.
type wireStats struct {
	jsonBytes   atomic.Uint64
	binaryBytes atomic.Uint64
}

func (s *wireStats) count(codec string, n int) {
	if s == nil {
		return
	}
	if codec == wireCodecBinary {
		s.binaryBytes.Add(uint64(n))
	} else {
		s.jsonBytes.Add(uint64(n))
	}
}

// fill copies the counters into a stats block (omitempty keeps silent
// wires invisible).
func (s *wireStats) fill(b *BackendStats) {
	b.WireJSONBytes = s.jsonBytes.Load()
	b.WireBinaryBytes = s.binaryBytes.Load()
}

// writeRawFrame emits a 4-byte big-endian length followed by payload.
func writeRawFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte protocol bound", len(payload), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readRawFrame reads one length-prefixed payload. A clean EOF before
// the header returns io.EOF; EOF mid-frame returns io.ErrUnexpectedEOF.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrameBytes {
		return nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte protocol bound", n, maxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// encodeWireMsg renders m as a binary payload.
func encodeWireMsg(m *wireMsg) []byte {
	w := snap.NewWriter(64)
	w.U8(binMagic)
	w.U8(binVersion)
	w.U8(m.kind)
	w.U64(m.seq)
	switch m.kind {
	case wireKindWork:
		w.Len(len(m.prefetch))
		for _, p := range m.prefetch {
			w.Bytes8([]byte(p))
		}
		w.Len(len(m.cells))
		for i := range m.cells {
			encodeSpecBin(w, &m.cells[i])
		}
	case wireKindResults:
		w.Bool(m.permanent)
		w.Bytes8([]byte(m.err))
		w.Len(len(m.results))
		for i := range m.results {
			encodeResultBin(w, &m.results[i])
		}
	case wireKindHeartbeat:
	}
	return w.Bytes()
}

// Minimum encoded sizes of one sequence element, from the encoders
// below: a length-prefixed string is at least its 4-byte prefix, a spec
// five such strings, ten 8-byte fields and the sweep's count, a result
// two such strings plus shard, canceled flag and elapsed time, a sweep
// value 8 bytes.
const (
	minStringBytes = 4
	minSpecBytes   = 5*minStringBytes + 10*8 + 4
	minResultBytes = 2*minStringBytes + 8 + 1 + 8
	minSweepBytes  = 8
)

// seqLen reads a sequence count and fails r when that many elements of
// at least minBytes each cannot fit in the rest of the frame, so a
// corrupt count cannot drive an allocation larger than the frame itself
// warrants.
func seqLen(r *snap.Reader, minBytes int) int {
	n := r.Len()
	if n > r.Remaining()/minBytes {
		r.Fail("%d elements cannot fit in the frame's last %d bytes", n, r.Remaining())
		return 0
	}
	return n
}

// decodeWireMsg parses a binary payload back into a wireMsg.
func decodeWireMsg(payload []byte) (*wireMsg, error) {
	if len(payload) < 3 || payload[0] != binMagic {
		return nil, fmt.Errorf("binary frame lacks magic byte (got %d payload bytes)", len(payload))
	}
	if payload[1] != binVersion {
		return nil, fmt.Errorf("binary frame version %d, want %d", payload[1], binVersion)
	}
	r := snap.NewReader(payload[2:])
	m := &wireMsg{kind: r.U8(), seq: r.U64()}
	switch m.kind {
	case wireKindWork:
		in := stringInterner{}
		if n := seqLen(r, minStringBytes); n > 0 {
			m.prefetch = make([]string, n)
			for i := range m.prefetch {
				m.prefetch[i] = in.str(r.Bytes8())
			}
		}
		if n := seqLen(r, minSpecBytes); n > 0 {
			m.cells = make([]CellSpec, n)
			for i := range m.cells {
				decodeSpecBin(r, &m.cells[i], in)
			}
		}
	case wireKindResults:
		m.permanent = r.Bool()
		m.err = string(r.Bytes8())
		if n := seqLen(r, minResultBytes); n > 0 {
			m.results = make([]CellResult, n)
			for i := range m.results {
				decodeResultBin(r, &m.results[i])
			}
		}
	case wireKindHeartbeat:
	default:
		return nil, fmt.Errorf("binary frame kind %d unknown", m.kind)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("binary frame: %w", err)
	}
	return m, nil
}

// encodeSpecBin writes one CellSpec. Params fields are written in
// declaration order; adding a Params field requires bumping binVersion
// (mixed-version fleets then fall back to JSON, which is tolerant).
func encodeSpecBin(w *snap.Writer, s *CellSpec) {
	w.Bytes8([]byte(s.Scenario))
	w.Bytes8([]byte(s.Scope))
	w.Int(s.Shard)
	w.U64(s.Seed)
	w.U64(s.RootSeed)
	w.Bytes8([]byte(s.Locality))
	p := &s.Params
	w.Int(p.Records)
	w.Int(p.MaxWorkloads)
	w.Int(p.MaxPairs)
	w.Int(p.Trials)
	w.Int(p.Budget)
	w.Int(p.Bits)
	w.F64(p.R)
	w.Len(len(p.Sweep))
	for _, v := range p.Sweep {
		w.F64(v)
	}
	w.Bytes8([]byte(p.Workload))
	w.Bytes8([]byte(p.WorkloadSpec))
}

// stringInterner dedups the small string vocabulary of a work frame —
// scenario, scope, workload, and locality names repeat across every
// cell in a batch, so a decoded chunk allocates each distinct string
// once instead of once per cell.
type stringInterner map[string]string

func (in stringInterner) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

func decodeSpecBin(r *snap.Reader, s *CellSpec, in stringInterner) {
	s.Scenario = in.str(r.Bytes8())
	s.Scope = in.str(r.Bytes8())
	s.Shard = r.Int()
	s.Seed = r.U64()
	s.RootSeed = r.U64()
	s.Locality = in.str(r.Bytes8())
	p := &s.Params
	p.Records = r.Int()
	p.MaxWorkloads = r.Int()
	p.MaxPairs = r.Int()
	p.Trials = r.Int()
	p.Budget = r.Int()
	p.Bits = r.Int()
	p.R = r.F64()
	if n := seqLen(r, minSweepBytes); n > 0 {
		p.Sweep = make([]float64, n)
		for i := range p.Sweep {
			p.Sweep[i] = r.F64()
		}
	}
	p.Workload = in.str(r.Bytes8())
	p.WorkloadSpec = in.str(r.Bytes8())
}

// encodeResultBin writes one wire-form CellResult (a worker calls
// encodeWire before framing, so the live value/err fields are empty).
func encodeResultBin(w *snap.Writer, r *CellResult) {
	w.Int(r.Shard)
	w.Bytes8(r.Value)
	w.Bytes8([]byte(r.Err))
	w.Bool(r.Canceled)
	w.U64(uint64(r.ElapsedUS))
}

func decodeResultBin(r *snap.Reader, res *CellResult) {
	res.Shard = r.Int()
	if b := r.Bytes8(); len(b) > 0 {
		// Copy out of the frame buffer: results outlive the frame.
		res.Value = append([]byte(nil), b...)
	}
	res.Err = string(r.Bytes8())
	res.Canceled = r.Bool()
	res.ElapsedUS = int64(r.U64())
}
