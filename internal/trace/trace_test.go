package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"stbpu/internal/rng"
)

func testProfile(name string, records int) Profile {
	p, err := Preset(name)
	if err != nil {
		panic(err)
	}
	return p.WithRecords(records)
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCond:         "cond",
		KindDirectJump:   "jmp",
		KindDirectCall:   "call",
		KindIndirectJump: "ijmp",
		KindIndirectCall: "icall",
		KindReturn:       "ret",
		Kind(99):         "Kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if !KindReturn.IsIndirect() || !KindIndirectJump.IsIndirect() || !KindIndirectCall.IsIndirect() {
		t.Error("indirect kinds misclassified")
	}
	if KindCond.IsIndirect() || KindDirectJump.IsIndirect() || KindDirectCall.IsIndirect() {
		t.Error("direct kinds misclassified as indirect")
	}
	if !KindDirectCall.IsCall() || !KindIndirectCall.IsCall() {
		t.Error("calls misclassified")
	}
	if KindReturn.IsCall() || KindCond.IsCall() {
		t.Error("non-calls misclassified as calls")
	}
}

func TestFallThrough(t *testing.T) {
	r := Record{PC: 0x1000}
	if got := r.FallThrough(); got != 0x1004 {
		t.Errorf("FallThrough = %#x, want 0x1004", got)
	}
	// Wraps within 48 bits.
	r = Record{PC: VAMask - 1}
	if got := r.FallThrough(); got != 2 {
		t.Errorf("FallThrough at VA boundary = %#x, want 2", got)
	}
}

func TestGenerateValidates(t *testing.T) {
	for _, name := range []string{"505.mcf", "519.lbm", "apache2_prefork_c128", "chrome-1jetstream"} {
		tr, err := Generate(testProfile(name, 20_000))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tr.Records) < 20_000 {
			t.Fatalf("%s: got %d records", name, len(tr.Records))
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(testProfile("505.mcf", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(testProfile("505.mcf", 5_000))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a.Records[i], b.Records[i])
		}
	}
}

func TestGenerateDiffersAcrossWorkloads(t *testing.T) {
	a, _ := Generate(testProfile("505.mcf", 2_000))
	b, _ := Generate(testProfile("541.leela", 2_000))
	same := 0
	for i := range a.Records {
		if a.Records[i] == b.Records[i] {
			same++
		}
	}
	if same > len(a.Records)/2 {
		t.Errorf("different workloads produced %d/%d identical records", same, len(a.Records))
	}
}

func TestCallReturnPairing(t *testing.T) {
	tr, err := Generate(testProfile("502.gcc", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	// Per process, returns must target the address pushed by the matching
	// call (LIFO), which is what makes the RSB model meaningful.
	stacks := make(map[uint32][]uint64)
	checked := 0
	for _, r := range tr.Records {
		key := r.PID
		switch {
		case r.Kind.IsCall():
			stacks[key] = append(stacks[key], r.FallThrough())
		case r.Kind == KindReturn:
			st := stacks[key]
			if len(st) == 0 {
				t.Fatalf("return with empty call stack for pid %d", key)
			}
			want := st[len(st)-1]
			stacks[key] = st[:len(st)-1]
			if r.Target != want {
				t.Fatalf("return target %#x, want %#x", r.Target, want)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("trace contained no returns")
	}
}

func TestServerTraceHasSystemActivity(t *testing.T) {
	tr, err := Generate(testProfile("mysql_128con_50s", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.ComputeStats()
	if s.ContextSwitches < 10 {
		t.Errorf("server trace has only %d context switches", s.ContextSwitches)
	}
	if s.KernelRecords == 0 {
		t.Error("server trace has no kernel records")
	}
	if s.Processes < 2 {
		t.Errorf("server trace has %d processes", s.Processes)
	}
}

func TestSPECTraceIsComputeBound(t *testing.T) {
	tr, err := Generate(testProfile("519.lbm", 60_000))
	if err != nil {
		t.Fatal(err)
	}
	s := tr.ComputeStats()
	// SPEC traces are captured on a live core: a light background process
	// and timer ticks appear, but switching stays orders of magnitude
	// rarer than on server traces.
	if s.ContextSwitches > 50 {
		t.Errorf("SPEC trace has %d context switches; expected rare reschedules", s.ContextSwitches)
	}
	frac := float64(s.KernelRecords) / float64(s.Total)
	if frac > 0.05 {
		t.Errorf("SPEC kernel fraction %v too high", frac)
	}
	condTakenFrac := float64(s.TakenConds) / float64(s.Conds)
	if condTakenFrac < 0.55 {
		t.Errorf("lbm taken fraction %v; expected biased-taken workload", condTakenFrac)
	}
}

func TestEasyVsHardClassSeparation(t *testing.T) {
	// A static bimodal predictor should do far better on lbm than mcf.
	// This validates that the class knobs actually change predictability.
	predict := func(name string) float64 {
		tr, err := Generate(testProfile(name, 50_000))
		if err != nil {
			t.Fatal(err)
		}
		counters := make(map[uint64]int8)
		correct, total := 0, 0
		for _, r := range tr.Records {
			if r.Kind != KindCond {
				continue
			}
			c := counters[r.PC]
			pred := c >= 2
			if pred == r.Taken {
				correct++
			}
			if r.Taken && c < 3 {
				counters[r.PC] = c + 1
			} else if !r.Taken && c > 0 {
				counters[r.PC] = c - 1
			}
			total++
		}
		return float64(correct) / float64(total)
	}
	easy := predict("519.lbm")
	hard := predict("505.mcf")
	if easy < hard+0.05 {
		t.Errorf("lbm accuracy %.3f not clearly above mcf %.3f", easy, hard)
	}
	if easy < 0.9 {
		t.Errorf("lbm bimodal accuracy %.3f, want > 0.9", easy)
	}
}

func TestValidateCatchesViolations(t *testing.T) {
	bad := []Trace{
		{Name: "pc", Records: []Record{{PC: 1 << 50, Kind: KindCond}}},
		{Name: "target", Records: []Record{{Target: 1 << 49, Kind: KindCond}}},
		{Name: "nt-jmp", Records: []Record{{Kind: KindDirectJump, Taken: false}}},
		{Name: "kind", Records: []Record{{Kind: Kind(9), Taken: true}}},
	}
	for _, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("Validate(%s) accepted invalid trace", tr.Name)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	tr, err := Generate(testProfile("520.omnetpp", 10_000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name {
		t.Errorf("name %q, want %q", got.Name, tr.Name)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("count %d, want %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestCodecCompression(t *testing.T) {
	tr, err := Generate(testProfile("503.bwaves", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	perRecord := float64(buf.Len()) / float64(len(tr.Records))
	if perRecord > 12 {
		t.Errorf("codec uses %.1f bytes/record, want <= 12", perRecord)
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a trace at all")); err == nil {
		t.Error("expected error for bad magic")
	}
	if _, err := Read(bytes.NewReader([]byte{'S', 'T', 'B', 'T', 99})); err == nil {
		t.Error("expected error for bad version")
	}
	// Truncated stream after a valid header.
	var buf bytes.Buffer
	if err := Write(&buf, &Trace{Name: "x", Records: []Record{{PC: 4, Target: 8, Kind: KindCond}}}); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-1]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("expected error for truncated stream")
	}
}

func TestCodecRoundTripProperty(t *testing.T) {
	// Property: arbitrary well-formed records survive the codec.
	f := func(seed uint64, n uint8) bool {
		r := rng.New(seed)
		recs := make([]Record, int(n)%64+1)
		for i := range recs {
			recs[i] = Record{
				PC:      r.Uint64() & VAMask,
				Target:  r.Uint64() & VAMask,
				PID:     r.Uint32() % 8,
				Program: uint16(r.Uint32() % 4),
				Kind:    Kind(r.Intn(int(numKinds))),
				Kernel:  r.Bool(0.2),
			}
			recs[i].Taken = recs[i].Kind != KindCond || r.Bool(0.5)
		}
		tr := &Trace{Name: "prop", Records: recs}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != len(recs) {
			return false
		}
		for i := range recs {
			if got.Records[i] != recs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPresetLookup(t *testing.T) {
	if _, err := Preset("505.mcf"); err != nil {
		t.Error(err)
	}
	// Short names resolve to the full profile.
	p, err := Preset("mcf")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "505.mcf" {
		t.Errorf("short name resolved to %q", p.Name)
	}
	if _, err := Preset("nonexistent"); err == nil {
		t.Error("expected error for unknown preset")
	}
}

func TestFig3WorkloadsComplete(t *testing.T) {
	names := Fig3Workloads()
	if len(names) != 37 {
		t.Errorf("Fig3Workloads returned %d names, want 37 (23 SPEC + 14 apps)", len(names))
	}
	for _, n := range names {
		p, err := Preset(n)
		if err != nil {
			t.Errorf("Fig. 3 workload %q has no preset: %v", n, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", n, err)
		}
	}
}

func TestSPEC18AndPairsResolve(t *testing.T) {
	if len(SPEC18()) != 18 {
		t.Errorf("SPEC18 returned %d names", len(SPEC18()))
	}
	for _, n := range SPEC18() {
		if _, err := Preset(n); err != nil {
			t.Errorf("SPEC18 workload %q: %v", n, err)
		}
	}
	pairs := SMTPairs()
	if len(pairs) != 31 {
		t.Errorf("SMTPairs returned %d pairs, want 31", len(pairs))
	}
	for _, pr := range append(pairs, SMTPairsExtended()...) {
		for _, n := range pr {
			if _, err := Preset(n); err != nil {
				t.Errorf("pair workload %q: %v", n, err)
			}
		}
	}
	if len(SMTPairsExtended()) != 42 {
		t.Errorf("SMTPairsExtended returned %d pairs, want 42", len(SMTPairsExtended()))
	}
}

func TestProfileValidate(t *testing.T) {
	good, _ := Preset("505.mcf")
	if err := good.Validate(); err != nil {
		t.Errorf("valid profile rejected: %v", err)
	}
	bad := good
	bad.Records = 0
	if err := bad.Validate(); err == nil {
		t.Error("Records=0 accepted")
	}
	bad = good
	bad.CondFrac = 0.9
	bad.IndirectFrac = 0.5
	if err := bad.Validate(); err == nil {
		t.Error("over-unity mix accepted")
	}
	bad = good
	bad.HardFrac = 0.8
	bad.PatternFrac = 0.8
	if err := bad.Validate(); err == nil {
		t.Error("over-unity behaviour mixture accepted")
	}
	bad = good
	bad.BiasTakenProb = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range fraction accepted")
	}
}

func BenchmarkGenerate(b *testing.B) {
	// The production path: caches generate straight into columns
	// (tracestore.PresetGenColumns), never through the AoS slice.
	p := testProfile("505.mcf", 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateColumns(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecWrite(b *testing.B) {
	tr, err := Generate(testProfile("505.mcf", 100_000))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCodecWriteMapped times the v2 spill encoder on the trace
// BenchmarkCodecWrite encodes as v1: the per-record cost of every
// -trace-dir spill written in mapped mode.
func BenchmarkCodecWriteMapped(b *testing.B) {
	cols, err := GenerateColumns(testProfile("505.mcf", 100_000))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteColumnsMapped(&buf, cols); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr, err := Generate(testProfile("520.omnetpp", 3_000))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, tr.Name)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("count %d, want %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"zzzz,1000,cond,1,1,0,0\n",          // bad pc
		"1000,zzzz,cond,1,1,0,0\n",          // bad target
		"1000,1004,frobnicate,1,1,0,0\n",    // bad kind
		"1000,1004,cond,1,notanumber,0,0\n", // bad pid
		"1000,1004,cond,1,1,999999,0\n",     // program overflow
		"1000,1004,cond,1\n",                // short row
	}
	for i, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "bad"); err == nil {
			t.Errorf("case %d: malformed CSV accepted", i)
		}
	}
}

func FuzzCodecRead(f *testing.F) {
	tr, err := Generate(testProfile("505.mcf", 200))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var v2 bytes.Buffer
	if err := WriteColumnsMapped(&v2, FromTrace(tr)); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add([]byte("STBT"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Read must never panic on arbitrary input; if it succeeds, the
		// decoded trace must survive re-encoding.
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Write(&out, got); err != nil {
			t.Fatalf("re-encode of accepted trace failed: %v", err)
		}
	})
}
