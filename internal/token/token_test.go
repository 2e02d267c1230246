package token

import (
	"testing"
	"testing/quick"

	"stbpu/internal/rng"
)

func TestDeriveThresholds(t *testing.T) {
	th := Derive(0.05)
	if th.Mispredictions != 41_900 {
		t.Errorf("misp threshold = %d, want 41900 (paper §VII-A)", th.Mispredictions)
	}
	if th.Evictions != 26_500 {
		t.Errorf("evict threshold = %d, want 26500 (paper §VII-A)", th.Evictions)
	}
	th = Derive(0.1)
	if th.Mispredictions != 83_800 || th.Evictions != 53_000 {
		t.Errorf("r=0.1 thresholds = %+v", th)
	}
	if got := Derive(0); got != (Thresholds{}) {
		t.Errorf("Derive(0) = %+v, want zero (disabled)", got)
	}
}

func TestTokenUniquenessPerEntity(t *testing.T) {
	m := NewManager(1, Derive(0.05))
	a := m.TokenFor(1)
	b := m.TokenFor(2)
	if a == b {
		t.Error("distinct entities got identical tokens")
	}
	if got := m.TokenFor(1); got != a {
		t.Error("token not stable across lookups")
	}
	if m.Stats().TokensIssued != 2 {
		t.Errorf("TokensIssued = %d", m.Stats().TokensIssued)
	}
}

func TestTokenNonZeroHalves(t *testing.T) {
	// ψ and φ should essentially never both be zero; check a population.
	m := NewManager(7, Derive(0.05))
	zero := 0
	for k := uint64(0); k < 1000; k++ {
		st := m.TokenFor(k)
		if st.Psi == 0 && st.Phi == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Errorf("%d all-zero tokens in 1000", zero)
	}
}

func TestShareToken(t *testing.T) {
	m := NewManager(3, Derive(0.05))
	canonical := m.TokenFor(100)
	m.ShareToken(101, 100)
	if got := m.TokenFor(101); got != canonical {
		t.Error("shared entity did not receive the canonical token")
	}
	// Budget is shared: events on the alias deplete the same counters.
	for i := uint64(0); i < m.Thresholds().Mispredictions; i++ {
		m.OnMisprediction(101)
	}
	if got := m.TokenFor(100); got == canonical {
		t.Error("re-randomization via alias did not affect canonical entity")
	}
}

func TestMispredictionThresholdTriggers(t *testing.T) {
	th := Thresholds{Mispredictions: 5, Evictions: 100}
	m := NewManager(9, th)
	first := m.TokenFor(1)
	var rerand bool
	var st ST
	for i := 0; i < 4; i++ {
		if _, r := m.OnMisprediction(1); r {
			t.Fatalf("re-randomized after only %d events", i+1)
		}
	}
	st, rerand = m.OnMisprediction(1)
	if !rerand {
		t.Fatal("threshold did not trigger at 5 events")
	}
	if st == first {
		t.Error("re-randomized token equals the old token")
	}
	if m.TokenFor(1) != st {
		t.Error("returned ST not installed")
	}
	if m.Stats().RerandMisp != 1 {
		t.Errorf("RerandMisp = %d", m.Stats().RerandMisp)
	}
	// Counter reset: another full budget is needed.
	for i := 0; i < 4; i++ {
		if _, r := m.OnMisprediction(1); r {
			t.Fatalf("premature second re-randomization at %d", i+1)
		}
	}
	if _, r := m.OnMisprediction(1); !r {
		t.Error("second threshold did not trigger")
	}
}

func TestEvictionThresholdIndependent(t *testing.T) {
	th := Thresholds{Mispredictions: 100, Evictions: 3}
	m := NewManager(11, th)
	m.OnMisprediction(1)
	m.OnEviction(1)
	m.OnEviction(1)
	if _, r := m.OnEviction(1); !r {
		t.Error("eviction threshold did not trigger")
	}
	if m.Stats().RerandEvict != 1 || m.Stats().RerandMisp != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestTageRegisterSeparate(t *testing.T) {
	th := Thresholds{Mispredictions: 1000, Evictions: 1000, TageMispredictions: 2}
	m := NewManager(13, th)
	m.OnTageMisprediction(1)
	if _, r := m.OnTageMisprediction(1); !r {
		t.Error("TAGE register did not trigger")
	}
	if m.Stats().RerandTage != 1 {
		t.Errorf("RerandTage = %d", m.Stats().RerandTage)
	}
}

func TestTageFallsBackToMainRegister(t *testing.T) {
	th := Thresholds{Mispredictions: 2, Evictions: 1000} // no TAGE register
	m := NewManager(15, th)
	m.OnTageMisprediction(1)
	if _, r := m.OnTageMisprediction(1); !r {
		t.Error("fallback to main register did not trigger")
	}
	if m.Stats().RerandMisp != 1 || m.Stats().RerandTage != 0 {
		t.Errorf("stats = %+v", m.Stats())
	}
}

func TestDisabledMonitors(t *testing.T) {
	m := NewManager(17, Thresholds{})
	for i := 0; i < 10000; i++ {
		if _, r := m.OnMisprediction(1); r {
			t.Fatal("disabled misprediction monitor triggered")
		}
		if _, r := m.OnEviction(1); r {
			t.Fatal("disabled eviction monitor triggered")
		}
	}
	if m.Stats().Total() != 0 {
		t.Error("stats should be zero with disabled monitors")
	}
}

func TestForcedRerandomize(t *testing.T) {
	m := NewManager(19, Derive(0.05))
	a := m.TokenFor(1)
	b := m.Rerandomize(1)
	if a == b {
		t.Error("forced re-randomization kept the token")
	}
	if m.TokenFor(1) != b {
		t.Error("forced token not installed")
	}
}

func TestDeterministicTokens(t *testing.T) {
	a := NewManager(42, Derive(0.05))
	b := NewManager(42, Derive(0.05))
	for k := uint64(0); k < 50; k++ {
		if a.TokenFor(k) != b.TokenFor(k) {
			t.Fatal("same seed produced different token streams")
		}
	}
}

func TestCountersPerEntityProperty(t *testing.T) {
	// Property: events on one entity never re-randomize another.
	f := func(seed uint64, events uint8) bool {
		m := NewManager(seed, Thresholds{Mispredictions: 10, Evictions: 10})
		before := m.TokenFor(2)
		for i := 0; i < int(events); i++ {
			m.OnMisprediction(1)
			m.OnEviction(1)
		}
		return m.TokenFor(2) == before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestThresholdsString(t *testing.T) {
	s := Derive(0.05).String()
	if s == "" {
		t.Error("empty threshold string")
	}
}

func TestEnclaveManagerLifecycle(t *testing.T) {
	e := NewEnclaveManager(31, Thresholds{Mispredictions: 100, Evictions: 100})
	first := e.Enter()
	if !e.InEnclave() {
		t.Fatal("Enter did not mark the session")
	}
	// Same session keeps the token.
	if got := e.Enter(); got != first {
		t.Error("token changed within a session chain")
	}
	e.Exit()
	if e.InEnclave() {
		t.Fatal("Exit did not clear the session")
	}
	// Next session must see a fresh token: the untrusted world never
	// observes reusable enclave state.
	if got := e.Enter(); got == first {
		t.Error("enclave token survived an exit")
	}
	if e.Entries != 3 || e.Exits != 1 {
		t.Errorf("entries/exits = %d/%d", e.Entries, e.Exits)
	}
}

func TestEnclaveEventsOnlyInsideSession(t *testing.T) {
	e := NewEnclaveManager(33, Thresholds{Mispredictions: 3, Evictions: 3})
	// Events outside an enclave session are ignored.
	for i := 0; i < 10; i++ {
		if _, r := e.OnMisprediction(); r {
			t.Fatal("event outside enclave re-randomized")
		}
	}
	e.Enter()
	e.OnMisprediction()
	e.OnMisprediction()
	if _, r := e.OnMisprediction(); !r {
		t.Error("in-session threshold did not trigger")
	}
	if _, r := e.OnEviction(); r {
		t.Error("eviction counter should have been reset by re-randomization")
	}
	e.Exit()
	e.Exit() // double exit is a no-op
	if e.Exits != 1 {
		t.Errorf("Exits = %d", e.Exits)
	}
}

// BenchmarkTokenManager measures token lookup/re-randomization cost.
func BenchmarkTokenManager(b *testing.B) {
	mgr := NewManager(1, Derive(0.05))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.OnMisprediction(uint64(r.Intn(64)))
	}
}
