package spec

import (
	"context"
	"math"
	"strings"
	"testing"

	"stbpu/internal/trace"
)

// validDoc is a well-formed document exercising most optional fields.
const validDoc = `{
  "name": "unit",
  "shared_tokens": true,
  "tenants": [
    {"name": "a", "preset": "apache2_prefork_c64", "image": "httpd", "weight": 2},
    {"name": "b", "preset": "apache2_prefork_c64", "image": "httpd", "weight": 1},
    {"name": "c", "preset": "505.mcf", "weight": 1}
  ],
  "phases": [
    {"name": "p0", "records": 4000, "switch": {"model": "weibull", "mean": 900, "shape": 1.5}},
    {"name": "p1", "records": 4000, "switch": {"model": "fixed", "mean": 1100},
     "weights": [1, 1, 4], "drift": 0.05,
     "mix": {"cond": 0.6, "jump": 0.1, "call": 0.08, "indirect": 0.08},
     "ramp": {"from": 1, "to": 3},
     "burst": {"period": 1000, "len": 200, "factor": 5}}
  ]
}`

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(s.Canonical())
	if err != nil {
		t.Fatalf("canonical form does not re-parse: %v", err)
	}
	if string(s.Canonical()) != string(again.Canonical()) {
		t.Error("canonical serialization is not a fixed point")
	}
	if s.Hash() != again.Hash() {
		t.Error("hash changed across round trip")
	}
	if want := WorkloadPrefix + "unit@" + s.Hash(); s.WorkloadName() != want {
		t.Errorf("workload name %q, want %q", s.WorkloadName(), want)
	}
	if !IsSpecWorkload(s.WorkloadName()) || IsSpecWorkload("505.mcf") {
		t.Error("IsSpecWorkload misclassifies")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown field", `{"name":"x","bogus":1,"tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"trailing document", validDoc + `{"name":"again"}`},
		{"not json", `{{{`},
		{"empty name", `{"name":"","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"bad name chars", `{"name":"sp ace","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"no tenants", `{"name":"x","tenants":[],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"unknown preset", `{"name":"x","tenants":[{"name":"t","preset":"nope"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"duplicate tenant", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"},{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"zero-record phase", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":0,"switch":{"mean":10}}]}`},
		{"negative records", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":-5,"switch":{"mean":10}}]}`},
		{"negative weight", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf","weight":-1}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"duplicate phase", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}},{"name":"p","records":100,"switch":{"mean":10}}]}`},
		{"unknown arrival", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"model":"pareto","mean":10}}]}`},
		{"arrival mean zero", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":0}}]}`},
		{"weight arity", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10},"weights":[1,2]}]}`},
		{"drift past half", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10},"drift":0.9}]}`},
		{"burst factor absurd", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10},"burst":{"period":10,"len":2,"factor":9999}}]}`},
		{"mixed explicit and zero weights", `{"name":"x","tenants":[{"name":"t","preset":"505.mcf","weight":1},{"name":"u","preset":"505.mcf"}],"phases":[{"name":"p","records":100,"switch":{"mean":10}}]}`},
	}
	for _, tc := range cases {
		if _, err := Parse([]byte(tc.doc)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestValidateRejectsHostileValues covers the inputs JSON cannot
// express but a programmatic caller can: non-finite floats and shape
// limits, which must error (never panic or balloon).
func TestValidateRejectsHostileValues(t *testing.T) {
	base := func() *Spec {
		s, err := Parse([]byte(validDoc))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"nan tenant weight", func(s *Spec) { s.Tenants[0].Weight = math.NaN() }},
		{"inf phase weight", func(s *Spec) { s.Phases[1].Weights[0] = math.Inf(1) }},
		{"nan drift", func(s *Spec) { s.Phases[0].Drift = math.NaN() }},
		{"nan arrival mean", func(s *Spec) { s.Phases[0].Switch.Mean = math.NaN() }},
		{"nan rate skew", func(s *Spec) { s.RateSkew = math.NaN() }},
		{"nan mix", func(s *Spec) { s.Phases[1].Mix.Cond = math.NaN() }},
		{"inf ramp", func(s *Spec) { s.Phases[1].Ramp.To = math.Inf(1) }},
		{"nan burst factor", func(s *Spec) { s.Phases[1].Burst.Factor = math.NaN() }},
		{"absurd tenant count", func(s *Spec) {
			s.Tenants = s.Tenants[:1]
			for i := 0; i < MaxTenants+1; i++ {
				tn := s.Tenants[0]
				tn.Name = tn.Name + "-" + strings.Repeat("x", i%8) // distinct-ish names
				s.Tenants = append(s.Tenants, tn)
			}
		}},
		{"absurd record total", func(s *Spec) { s.Phases[0].Records = MaxTotalRecords }},
	}
	for _, tc := range cases {
		s := base()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestDefaultWeights(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	w := s.DefaultWeights()
	if len(w) != 3 || math.Abs(w[0]-0.5) > 1e-12 || math.Abs(w[1]-0.25) > 1e-12 {
		t.Errorf("explicit weights not normalized: %v", w)
	}
	// No explicit weights: Zipf(rank, skew).
	z := &Spec{Name: "z", RateSkew: 1,
		Tenants: []Tenant{{Name: "a", Preset: "505.mcf"}, {Name: "b", Preset: "505.mcf"}},
		Phases:  []Phase{{Name: "p", Records: 100, Switch: Arrival{Mean: 10}}}}
	if err := z.Validate(); err != nil {
		t.Fatal(err)
	}
	zw := z.DefaultWeights()
	if math.Abs(zw[0]-2.0/3.0) > 1e-12 || math.Abs(zw[1]-1.0/3.0) > 1e-12 {
		t.Errorf("zipf weights wrong: %v", zw)
	}
	// Phase override normalizes too.
	pw := s.PhaseWeights(1)
	if math.Abs(pw[2]-4.0/6.0) > 1e-12 {
		t.Errorf("phase weights wrong: %v", pw)
	}
}

func TestBoundariesAndTotals(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if s.TotalRecords() != 8000 {
		t.Errorf("total %d", s.TotalRecords())
	}
	b := s.Boundaries(0)
	if len(b) != 3 || b[0] != 0 || b[1] != 4000 || b[2] != 8000 {
		t.Errorf("own-total boundaries %v", b)
	}
	b = s.Boundaries(1000)
	if b[2] != 1000 || b[1] != 500 {
		t.Errorf("rescaled boundaries %v", b)
	}
}

func TestRegisterResolvesByName(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if err := Register(s); err != nil {
		t.Fatal(err)
	}
	if err := Register(s); err != nil {
		t.Fatalf("re-register not idempotent: %v", err)
	}
	name := s.WorkloadName()
	if got, ok := Lookup(name); !ok || got.Name != s.Name {
		t.Fatalf("Lookup(%q) = %v, %v", name, got, ok)
	}
	found := false
	for _, n := range Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() missing %q", name)
	}
	// What Lookup returns is what tracestore generates the workload from.
	got, _ := Lookup(name)
	if prof := got.Profile(0); prof.Name != name || prof.Records != 8000 || !prof.SharedTokens {
		t.Errorf("registered profile %+v", prof)
	}
	cols, err := got.GenerateColumns(2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cols.Len() != 2000 || cols.Name != name {
		t.Errorf("registered columns %q with %d records", cols.Name, cols.Len())
	}
	if err := cols.Validate(); err != nil {
		t.Errorf("registered columns invalid: %v", err)
	}
}

func TestGenerateDeterministicAcrossCalls(t *testing.T) {
	s, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Generate(3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Generate(3000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Records) != len(b.Records) {
		t.Fatal("lengths differ")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	c, err := s.Generate(3000, 99)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Records {
		if a.Records[i] != c.Records[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct seeds generated identical traces")
	}
}

func TestBuiltinFixturesRegisterAndGenerate(t *testing.T) {
	RegisterBuiltin()
	RegisterBuiltin() // idempotent
	for _, s := range Builtin() {
		if _, ok := Lookup(s.WorkloadName()); !ok {
			t.Errorf("builtin %q not registered", s.Name)
		}
		tr, err := s.Generate(5000, 0)
		if err != nil {
			t.Errorf("builtin %q: %v", s.Name, err)
			continue
		}
		if err := tr.Validate(); err != nil {
			t.Errorf("builtin %q trace invalid: %v", s.Name, err)
		}
	}
}

// TestFillMatchesGenerateColumns: streaming a spec workload (Fill on
// its own goroutine, rows read chunk by chunk as they are published)
// yields exactly GenerateColumns' rows, for the built-in specs and the
// test document at record counts that are not multiples of the
// publication chunk, one of them below it.
func TestFillMatchesGenerateColumns(t *testing.T) {
	unit, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range append(Builtin(), unit) {
		for _, n := range []int{3_000, 8_193, 21_000} {
			want, err := s.GenerateColumns(n, 0)
			if err != nil {
				t.Fatal(err)
			}
			st := trace.NewStream(s.Profile(n).Name, n)
			errc := make(chan error, 1)
			go func() { errc <- s.Fill(st, 0) }()
			got := st.Columns()
			for lo := 0; lo < n; lo += 5_000 {
				hi := min(lo+5_000, n)
				if err := got.Wait(context.Background(), hi); err != nil {
					t.Fatal(err)
				}
				for i := lo; i < hi; i++ {
					if got.Record(i) != want.Record(i) {
						t.Fatalf("%s@%d row %d = %+v, want %+v", s.Name, n, i, got.Record(i), want.Record(i))
					}
				}
			}
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
			if got.Name != want.Name || got.Len() != want.Len() {
				t.Fatalf("%s@%d: streamed %q/%d, generated %q/%d", s.Name, n, got.Name, got.Len(), want.Name, want.Len())
			}
		}
	}
}
