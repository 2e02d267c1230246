package remap

import (
	"testing"
	"testing/quick"

	"stbpu/internal/rng"
)

func TestBitsFieldRoundTrip(t *testing.T) {
	f := func(v uint64, offRaw, widthRaw uint8) bool {
		width := int(widthRaw)%32 + 1
		off := int(offRaw) % (MaxBits - width)
		var b Bits
		val := v & (1<<uint(width) - 1)
		b = b.PutField(off, width, val)
		return uint64(b.Field(off, width)) == val
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsSetGetFlip(t *testing.T) {
	var b Bits
	for _, i := range []int{0, 1, 63, 64, 65, 127} {
		b = b.Set(i, 1)
		if b.Get(i) != 1 {
			t.Errorf("bit %d not set", i)
		}
		b = b.Flip(i)
		if b.Get(i) != 0 {
			t.Errorf("bit %d not flipped", i)
		}
	}
}

func TestBitsMask(t *testing.T) {
	b := Bits{^uint64(0), ^uint64(0)}
	cases := []struct {
		n    int
		want int // OnesCount after mask
	}{
		{0, 0}, {1, 1}, {63, 63}, {64, 64}, {65, 65}, {127, 127}, {128, 128}, {200, 128},
	}
	for _, c := range cases {
		if got := b.Mask(c.n).OnesCount(); got != c.want {
			t.Errorf("Mask(%d).OnesCount() = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBitsXorOnesCount(t *testing.T) {
	a := BitsFrom(0b1100)
	b := BitsFrom(0b1010)
	if got := a.Xor(b).OnesCount(); got != 2 {
		t.Errorf("Xor.OnesCount = %d, want 2", got)
	}
}

func TestPackInputs(t *testing.T) {
	b := PackInputs(
		FieldSpec{0xA, 4},
		FieldSpec{0x3, 2},
		FieldSpec{0x1FF, 9},
	)
	if got := b.Field(0, 4); got != 0xA {
		t.Errorf("field0 = %#x", got)
	}
	if got := b.Field(4, 2); got != 0x3 {
		t.Errorf("field1 = %#x", got)
	}
	if got := b.Field(6, 9); got != 0x1FF {
		t.Errorf("field2 = %#x", got)
	}
}

func TestPackInputsPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PackInputs(FieldSpec{0, 100}, FieldSpec{0, 100})
}

func TestSBoxesBijective(t *testing.T) {
	for _, s := range AllSBoxes {
		if !s.IsBijective() {
			t.Errorf("S-box %s is not bijective", s.Name)
		}
		if len(s.Table) != 1<<uint(s.Width) {
			t.Errorf("S-box %s table size %d", s.Name, len(s.Table))
		}
	}
	bad := SBox{Name: "bad", Width: 2, Table: []uint8{0, 0, 1, 2}}
	if bad.IsBijective() {
		t.Error("non-bijective S-box accepted")
	}
}

// handCircuit builds a tiny known-good circuit: 8 -> 4 bits.
func handCircuit() *Circuit {
	return &Circuit{
		Name:   "hand",
		InBits: 8, OutBits: 4,
		Layers: []Layer{
			{Kind: LayerSub, Boxes: []SBox{PresentSBox, SpongentSBox}},
			{Kind: LayerPerm, Perm: []int{7, 6, 5, 4, 3, 2, 1, 0}},
			{Kind: LayerCompress, Groups: [][]int{{0, 4}, {1, 5}, {2, 6}, {3, 7}}},
		},
	}
}

func TestCircuitValidateAccepts(t *testing.T) {
	if err := handCircuit().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCircuitValidateRejects(t *testing.T) {
	cases := []func(*Circuit){
		func(c *Circuit) { c.InBits = 0 },
		func(c *Circuit) { c.OutBits = 0 },
		func(c *Circuit) { c.OutBits = 9 },
		func(c *Circuit) { c.Layers[0].Boxes = c.Layers[0].Boxes[:1] },        // partial coverage
		func(c *Circuit) { c.Layers[1].Perm = []int{0, 0, 1, 2, 3, 4, 5, 6} }, // not a permutation
		func(c *Circuit) { c.Layers[2].Groups = c.Layers[2].Groups[:3] },      // wrong final width
		func(c *Circuit) { c.Layers[2].Groups[0] = []int{99} },                // out of range
		func(c *Circuit) { c.Layers[2].Groups[0] = nil },                      // empty group
	}
	for i, mutate := range cases {
		c := handCircuit()
		mutate(c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid circuit accepted", i)
		}
	}
}

func TestCircuitEvalKnownValues(t *testing.T) {
	c := handCircuit()
	// Manually trace input 0x00: sub -> PRESENT(0)=0xC low, SPONGENT(0)=0xE
	// high => state 0xEC; perm reverses bits => 0x37; compress XORs
	// (b0^b4, b1^b5, b2^b6, b3^b7) of 0x37 = 0011 0111:
	// bits: 1,1,1,0,1,1,0,0 -> out bits: 1^1, 1^1, 1^0, 0^0 = 0,0,1,0 = 0x4.
	got := c.Eval(BitsFrom(0)).Low()
	if got != 0x4 {
		t.Errorf("Eval(0) = %#x, want 0x4", got)
	}
}

func TestCircuitEvalDeterministic(t *testing.T) {
	c := handCircuit()
	r := rng.New(1)
	for i := 0; i < 100; i++ {
		in := BitsFrom(r.Uint64()).Mask(8)
		if c.Eval(in) != c.Eval(in) {
			t.Fatal("Eval is not deterministic")
		}
	}
}

func TestCostModelEstimates(t *testing.T) {
	c := handCircuit()
	cost := DefaultCostModel.Estimate(c)
	// One sub layer (8 path) + compress of 2-input groups (1 level, 4 path).
	if cost.CriticalPath != 12 {
		t.Errorf("CriticalPath = %d, want 12", cost.CriticalPath)
	}
	if cost.Layers != 3 {
		t.Errorf("Layers = %d", cost.Layers)
	}
	if cost.Total == 0 || cost.Breadth == 0 {
		t.Error("zero totals")
	}
	if err := cost.Satisfies(DefaultConstraints); err != nil {
		t.Errorf("hand circuit violates default constraints: %v", err)
	}
}

func TestCostSatisfiesViolations(t *testing.T) {
	c := Cost{CriticalPath: 100}
	if err := c.Satisfies(DefaultConstraints); err == nil {
		t.Error("critical path violation accepted")
	}
	c = Cost{Layers: 99}
	if err := c.Satisfies(DefaultConstraints); err == nil {
		t.Error("layer violation accepted")
	}
}

func TestGenerateMeetsConstraints(t *testing.T) {
	for i, spec := range circuitSpecs() {
		if testing.Short() && i > 0 {
			break // one spec covers the generator path; the sweep is slow
		}
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			spec.Candidates = 3
			spec.Samples = 128
			c, q, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Validate(); err != nil {
				t.Fatal(err)
			}
			cost := DefaultCostModel.Estimate(c)
			if err := cost.Satisfies(DefaultConstraints); err != nil {
				t.Fatalf("constraint violation: %v (cost %+v)", err, cost)
			}
			if cost.CriticalPath > 45 {
				t.Errorf("critical path %d > 45", cost.CriticalPath)
			}
			if q.Score() > 1.0 {
				t.Errorf("poor quality: %+v", q)
			}
		})
	}
}

func TestGenerateDeterministicWithSeed(t *testing.T) {
	cfg := GenConfig{Name: "R3", InBits: 80, OutBits: 14, Candidates: 2, Samples: 64, Seed: 42}
	a, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same seed produced different circuits:\n%s\n%s", a, b)
	}
}

func TestGenerateRejectsBadWidths(t *testing.T) {
	if _, _, err := Generate(GenConfig{Name: "x", InBits: 8, OutBits: 8}); err == nil {
		t.Error("out == in accepted")
	}
	if _, _, err := Generate(GenConfig{Name: "x", InBits: 300, OutBits: 8}); err == nil {
		t.Error("too-wide input accepted")
	}
}

// mixerAsBitsFunc adapts one Mixer function for the Evaluate harness.
func mixerR1AsBitsFunc() (func(Bits) Bits, int, int) {
	m := NewMixer()
	f := func(in Bits) Bits {
		psi := in.Field(0, PsiBits)
		s := uint64(in.Field(PsiBits, 24)) | uint64(in.Field(PsiBits+24, 24))<<24
		ind, tag, offs := m.R1(psi, s)
		var out Bits
		out = out.PutField(0, BTBIndexBits, uint64(ind))
		out = out.PutField(BTBIndexBits, BTBTagBits, uint64(tag))
		out = out.PutField(BTBIndexBits+BTBTagBits, BTBOffsetBits, uint64(offs))
		return out
	}
	return f, PsiBits + SourceBits, BTBIndexBits + BTBTagBits + BTBOffsetBits
}

func TestMixerQuality(t *testing.T) {
	f, in, out := mixerR1AsBitsFunc()
	q := Evaluate(f, in, out, 256, rng.New(7))
	if !q.Passes(0.12) {
		t.Errorf("mixer R1 fails C2/C3: %+v", q)
	}
}

func TestCircuitQualityFull(t *testing.T) {
	if testing.Short() {
		t.Skip("full circuit validation is slow")
	}
	set, err := DefaultCircuitSet()
	if err != nil {
		t.Fatal(err)
	}
	q := EvaluateCircuit(set.R1c, 512, rng.New(11))
	if !q.Passes(0.15) {
		t.Errorf("shipped R1 circuit fails C2/C3: %+v", q)
	}
}

func TestDefaultCircuitSetComplete(t *testing.T) {
	set, err := DefaultCircuitSet()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Circuit{
		"R1": set.R1c, "R2": set.R2c, "R3": set.R3c,
		"R4": set.R4c, "Rt": set.Rtc, "Rp": set.Rpc,
	} {
		if c == nil {
			t.Fatalf("circuit %s missing", name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("circuit %s: %v", name, err)
		}
	}
}

func TestFuncsKeyedBehaviour(t *testing.T) {
	// Different ψ must remap the same address differently (the whole point
	// of STBPU), for both backends.
	backends := map[string]Funcs{"mixer": NewMixer()}
	if set, err := DefaultCircuitSet(); err == nil {
		backends["circuit"] = set
	}
	for name, f := range backends {
		t.Run(name, func(t *testing.T) {
			const addr = 0x00007f1234567890 & vaMask48
			diff := 0
			for psi := uint32(1); psi <= 64; psi++ {
				i0, t0, o0 := f.R1(0, addr)
				i1, t1, o1 := f.R1(psi, addr)
				if i0 != i1 || t0 != t1 || o0 != o1 {
					diff++
				}
			}
			if diff < 60 {
				t.Errorf("only %d/64 keys changed the R1 mapping", diff)
			}
		})
	}
}

func TestFuncsOutputRanges(t *testing.T) {
	backends := map[string]Funcs{"mixer": NewMixer()}
	if set, err := DefaultCircuitSet(); err == nil {
		backends["circuit"] = set
	}
	r := rng.New(3)
	for name, f := range backends {
		t.Run(name, func(t *testing.T) {
			for i := 0; i < 500; i++ {
				psi := r.Uint32()
				s := r.Uint64() & vaMask48
				ind, tag, offs := f.R1(psi, s)
				if ind >= 1<<BTBIndexBits || tag >= 1<<BTBTagBits || offs >= 1<<BTBOffsetBits {
					t.Fatalf("R1 out of range: %d %d %d", ind, tag, offs)
				}
				if v := f.R2(psi, r.Uint64()); v >= 1<<BTBTagBits {
					t.Fatalf("R2 out of range: %d", v)
				}
				if v := f.R3(psi, s); v >= 1<<PHTIndexBits {
					t.Fatalf("R3 out of range: %d", v)
				}
				if v := f.R4(psi, uint16(r.Uint32()), s); v >= 1<<PHTIndexBits {
					t.Fatalf("R4 out of range: %d", v)
				}
				ti, tt := f.Rt(psi, s, r.Uint64(), 10, 8)
				if ti >= 1<<10 || tt >= 1<<8 {
					t.Fatalf("Rt out of range: %d %d", ti, tt)
				}
				if v := f.Rp(psi, s); v >= 1<<PerceptronIndexBits {
					t.Fatalf("Rp out of range: %d", v)
				}
			}
		})
	}
}

func TestTableIIWidths(t *testing.T) {
	rows := TableII()
	if len(rows) != 6 {
		t.Fatalf("TableII has %d rows, want 6", len(rows))
	}
	want := map[string][2]int{
		"R1": {80, 22},
		"R2": {90, 8},
		"R3": {80, 14},
		"R4": {96, 14},
		"Rt": {96, 25},
		"Rp": {80, 10},
	}
	for _, row := range rows {
		w, ok := want[row.Name]
		if !ok {
			t.Errorf("unexpected row %s", row.Name)
			continue
		}
		if row.STBPUInBits != w[0] || row.OutBits != w[1] {
			t.Errorf("%s: %d->%d, want %d->%d", row.Name, row.STBPUInBits, row.OutBits, w[0], w[1])
		}
	}
	// Generated circuits must match the declared interface widths.
	set, err := DefaultCircuitSet()
	if err != nil {
		t.Fatal(err)
	}
	circuits := map[string]*Circuit{
		"R1": set.R1c, "R2": set.R2c, "R3": set.R3c,
		"R4": set.R4c, "Rt": set.Rtc, "Rp": set.Rpc,
	}
	for _, row := range rows {
		c := circuits[row.Name]
		if c.InBits != row.STBPUInBits || c.OutBits != row.OutBits {
			t.Errorf("circuit %s is %d->%d, Table II says %d->%d",
				row.Name, c.InBits, c.OutBits, row.STBPUInBits, row.OutBits)
		}
	}
}

func TestLayerKindString(t *testing.T) {
	if LayerSub.String() != "sub" || LayerPerm.String() != "perm" || LayerCompress.String() != "compress" {
		t.Error("layer kind names wrong")
	}
	if LayerKind(9).String() == "" {
		t.Error("unknown kind should still render")
	}
}

// benchIndex receives each R1 benchmark's sum, so the compiler keeps
// every evaluation the loop makes (with a never-read local sink it
// dropped the Mixer hash and timed an empty loop).
var benchIndex uint32

func BenchmarkMixerR1(b *testing.B) {
	m := NewMixer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		ind, _, _ := m.R1(0xdeadbeef, uint64(i)*64)
		sink += ind
	}
	benchIndex = sink
}

// BenchmarkCircuitR1 times one R1 evaluation of the generated circuit;
// the one-off DefaultCircuitSet build (seconds, cached for the process)
// stays outside the timer.
func BenchmarkCircuitR1(b *testing.B) {
	set, err := DefaultCircuitSet()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink uint32
	for i := 0; i < b.N; i++ {
		ind, _, _ := set.R1(0xdeadbeef, uint64(i)*64)
		sink += ind
	}
	benchIndex = sink
}

func BenchmarkRemapGenerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := GenConfig{Name: "R1", InBits: 80, OutBits: 22, Candidates: 1, Samples: 64, Seed: uint64(i) + 1}
		if _, _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
