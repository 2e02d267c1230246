// Package spec implements declarative, phase-structured workload
// specifications: JSON documents that compile onto the phased trace
// generator (internal/trace/phased.go). A spec names its tenants (each
// backed by a preset behaviour profile, optionally sharing program
// images) and an ordered list of phases (record budgets, per-tenant
// rate weights, arrival models, mix overrides, drift, ramp and burst
// modifiers). Registered specs become ordinary named workloads: the
// workload name embeds a content hash of the canonical document, so
// the (name, records) tracestore key fully determines the byte stream
// and every cache tier, backend, and resume path applies unchanged.
//
// The module has no YAML dependency, so specs are JSON only; parsing
// is strict (unknown fields are errors) to keep documents portable
// across coordinator and worker processes.
package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"

	"stbpu/internal/trace"
)

// WorkloadPrefix starts every spec-derived workload name.
const WorkloadPrefix = "spec:"

// Limits on document shape, enforced before any proportional
// allocation so hostile inputs fail fast instead of ballooning.
const (
	MaxTenants      = 64
	MaxPhases       = 64
	MaxTotalRecords = 1 << 30
)

// Tenant is one scheduled entity of a workload spec.
type Tenant struct {
	// Name labels the tenant; it defaults the image key.
	Name string `json:"name"`
	// Preset names the trace preset supplying the tenant's behaviour
	// profile ("505.mcf", "apache2_prefork_c64", or a gem5 short name).
	Preset string `json:"preset"`
	// Image groups tenants onto shared program images: tenants with
	// equal image keys run the same static code. Empty means the
	// tenant's own name (a distinct image).
	Image string `json:"image,omitempty"`
	// Weight is the tenant's default rate share (phases may override).
	// All-zero weights fall back to RateSkew-shaped Zipf shares.
	Weight float64 `json:"weight,omitempty"`
}

// Arrival is the JSON form of an inter-switch arrival model.
type Arrival struct {
	// Model is one of "fixed", "geometric", "gamma", "weibull".
	Model string `json:"model"`
	// Mean is the mean inter-switch interval in records.
	Mean float64 `json:"mean"`
	// Shape parameterizes gamma/weibull.
	Shape float64 `json:"shape,omitempty"`
}

// Mix is the JSON form of a dynamic branch-mix override.
type Mix struct {
	Cond     float64 `json:"cond"`
	Jump     float64 `json:"jump,omitempty"`
	Call     float64 `json:"call,omitempty"`
	Indirect float64 `json:"indirect,omitempty"`
}

// Ramp linearly sweeps the switch-density multiplier across a phase.
type Ramp struct {
	From float64 `json:"from"`
	To   float64 `json:"to"`
}

// Burst periodically densifies switching: every Period records the
// first Len records switch Factor times denser.
type Burst struct {
	Period int     `json:"period"`
	Len    int     `json:"len"`
	Factor float64 `json:"factor"`
}

// Phase is one phase of a workload spec.
type Phase struct {
	Name    string    `json:"name"`
	Records int       `json:"records"`
	Switch  Arrival   `json:"switch"`
	Weights []float64 `json:"weights,omitempty"`
	Mix     *Mix      `json:"mix,omitempty"`
	Drift   float64   `json:"drift,omitempty"`
	Ramp    *Ramp     `json:"ramp,omitempty"`
	Burst   *Burst    `json:"burst,omitempty"`
}

// Spec is a complete declarative workload description.
type Spec struct {
	// Name labels the workload; the registered workload name is
	// "spec:<name>@<hash>" where hash covers the canonical document.
	Name string `json:"name"`
	// SharedTokens tells STBPU models the OS assigned one secret token
	// per program rather than per process (paper §IV-A).
	SharedTokens bool `json:"shared_tokens,omitempty"`
	// RateSkew shapes default tenant weights as Zipf(rank, RateSkew)
	// when no tenant declares an explicit weight. Zero means equal.
	RateSkew float64  `json:"rate_skew,omitempty"`
	Tenants  []Tenant `json:"tenants"`
	Phases   []Phase  `json:"phases"`
}

// Parse strictly decodes and validates a spec document.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	// A second document after the first is a malformed input, not
	// trailing whitespace.
	if dec.More() {
		return nil, fmt.Errorf("spec: trailing data after document")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile reads and parses a spec document from disk.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %v", err)
	}
	return Parse(data)
}

func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// Validate checks the document against the schema limits. Every
// numeric comparison is phrased so NaN fails it.
func (s *Spec) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("spec: name %q must be 1-64 chars of [A-Za-z0-9._-]", s.Name)
	}
	if len(s.Tenants) < 1 || len(s.Tenants) > MaxTenants {
		return fmt.Errorf("spec %q: %d tenants out of [1, %d]", s.Name, len(s.Tenants), MaxTenants)
	}
	if len(s.Phases) < 1 || len(s.Phases) > MaxPhases {
		return fmt.Errorf("spec %q: %d phases out of [1, %d]", s.Name, len(s.Phases), MaxPhases)
	}
	if !(s.RateSkew >= 0 && s.RateSkew <= 4) {
		return fmt.Errorf("spec %q: rate_skew %v out of [0, 4]", s.Name, s.RateSkew)
	}
	seen := map[string]bool{}
	weightSum := 0.0
	for i := range s.Tenants {
		t := &s.Tenants[i]
		if !validName(t.Name) {
			return fmt.Errorf("spec %q: tenant %d name %q invalid", s.Name, i, t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("spec %q: duplicate tenant %q", s.Name, t.Name)
		}
		seen[t.Name] = true
		if _, err := trace.Preset(t.Preset); err != nil {
			return fmt.Errorf("spec %q: tenant %q: %v", s.Name, t.Name, err)
		}
		if t.Image != "" && !validName(t.Image) {
			return fmt.Errorf("spec %q: tenant %q image %q invalid", s.Name, t.Name, t.Image)
		}
		if !(t.Weight >= 0 && t.Weight <= 1e6) {
			return fmt.Errorf("spec %q: tenant %q weight %v out of [0, 1e6]", s.Name, t.Name, t.Weight)
		}
		weightSum += t.Weight
	}
	hasExplicit := weightSum > 0
	for i := range s.Tenants {
		if hasExplicit && !(s.Tenants[i].Weight > 0) {
			return fmt.Errorf("spec %q: tenant %q needs a positive weight (mixing explicit and zero weights is ambiguous)",
				s.Name, s.Tenants[i].Name)
		}
	}
	total := 0
	phaseNames := map[string]bool{}
	for i := range s.Phases {
		ph := &s.Phases[i]
		if !validName(ph.Name) {
			return fmt.Errorf("spec %q: phase %d name %q invalid", s.Name, i, ph.Name)
		}
		if phaseNames[ph.Name] {
			return fmt.Errorf("spec %q: duplicate phase %q", s.Name, ph.Name)
		}
		phaseNames[ph.Name] = true
		if ph.Records < 1 {
			return fmt.Errorf("spec %q: phase %q records %d must be positive", s.Name, ph.Name, ph.Records)
		}
		total += ph.Records
		if total > MaxTotalRecords {
			return fmt.Errorf("spec %q: total records exceed %d", s.Name, MaxTotalRecords)
		}
		// Explicit non-finite scan: JSON cannot encode NaN/Inf, but a
		// programmatically built spec could carry one, and everything
		// downstream (canonical marshal included) assumes finite
		// floats.
		floats := []float64{ph.Switch.Mean, ph.Switch.Shape, ph.Drift}
		floats = append(floats, ph.Weights...)
		if ph.Mix != nil {
			floats = append(floats, ph.Mix.Cond, ph.Mix.Jump, ph.Mix.Call, ph.Mix.Indirect)
		}
		if ph.Ramp != nil {
			floats = append(floats, ph.Ramp.From, ph.Ramp.To)
		}
		if ph.Burst != nil {
			floats = append(floats, ph.Burst.Factor)
		}
		for _, f := range floats {
			if math.IsNaN(f) || math.IsInf(f, 0) {
				return fmt.Errorf("spec %q: phase %q: non-finite parameter %v", s.Name, ph.Name, f)
			}
		}
	}
	// Compile-level checks (arrivals, weights, mixes, ramps, bursts)
	// run on the trace-level representation so the two layers cannot
	// drift apart. The placeholder name avoids hashing an unvalidated
	// document.
	pp, err := s.phasedNamed("validate", 0)
	if err != nil {
		return err
	}
	return pp.Validate()
}

// arrivalKind maps the JSON model name to the trace-level kind.
func arrivalKind(model string) (trace.ArrivalKind, error) {
	switch model {
	case "geometric", "":
		return trace.ArrivalGeometric, nil
	case "fixed":
		return trace.ArrivalFixed, nil
	case "gamma":
		return trace.ArrivalGamma, nil
	case "weibull":
		return trace.ArrivalWeibull, nil
	}
	return 0, fmt.Errorf("unknown arrival model %q", model)
}

// DefaultWeights returns the spec's tenant rate shares outside any
// phase override: explicit weights when any tenant sets one, else
// Zipf(rank, RateSkew) shares (equal when RateSkew is zero). The
// result is normalized to sum to 1.
func (s *Spec) DefaultWeights() []float64 {
	w := make([]float64, len(s.Tenants))
	explicit := false
	for i := range s.Tenants {
		if s.Tenants[i].Weight > 0 {
			explicit = true
		}
	}
	sum := 0.0
	for i := range s.Tenants {
		if explicit {
			w[i] = s.Tenants[i].Weight
		} else {
			w[i] = 1 / math.Pow(float64(i+1), s.RateSkew)
		}
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// PhaseWeights returns phase pi's normalized tenant rate shares.
func (s *Spec) PhaseWeights(pi int) []float64 {
	ph := &s.Phases[pi]
	if len(ph.Weights) != len(s.Tenants) {
		return s.DefaultWeights()
	}
	w := make([]float64, len(ph.Weights))
	sum := 0.0
	for i, v := range ph.Weights {
		w[i] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// phased compiles the spec to the trace-level phased profile, using
// the content-hashed workload name (which seeds generation). Record
// rescaling happens at generation time (trace.GeneratePhased).
func (s *Spec) phased(seed uint64) (trace.PhasedProfile, error) {
	return s.phasedNamed(s.WorkloadName(), seed)
}

// phasedNamed is phased with an explicit trace name; Validate uses a
// placeholder so compilation checks never hash an unvalidated spec.
func (s *Spec) phasedNamed(name string, seed uint64) (trace.PhasedProfile, error) {
	pp := trace.PhasedProfile{Name: name, Seed: seed}
	imageIdx := map[string]int{}
	for i := range s.Tenants {
		t := &s.Tenants[i]
		prof, err := trace.Preset(t.Preset)
		if err != nil {
			return trace.PhasedProfile{}, fmt.Errorf("spec %q: tenant %q: %v", s.Name, t.Name, err)
		}
		imageKey := t.Image
		if imageKey == "" {
			imageKey = t.Name
		}
		idx, ok := imageIdx[imageKey]
		if !ok {
			idx = len(imageIdx)
			imageIdx[imageKey] = idx
		}
		pp.Tenants = append(pp.Tenants, trace.TenantSpec{Name: t.Name, Profile: prof, Image: idx})
	}
	defaults := s.DefaultWeights()
	for i := range s.Phases {
		ph := &s.Phases[i]
		kind, err := arrivalKind(ph.Switch.Model)
		if err != nil {
			return trace.PhasedProfile{}, fmt.Errorf("spec %q: phase %q: %v", s.Name, ph.Name, err)
		}
		def := trace.PhaseDef{
			Name:    ph.Name,
			Records: ph.Records,
			Switch:  trace.Arrival{Kind: kind, Mean: ph.Switch.Mean, Shape: ph.Switch.Shape},
			Drift:   ph.Drift,
		}
		if len(ph.Weights) != 0 {
			if len(ph.Weights) != len(s.Tenants) {
				return trace.PhasedProfile{}, fmt.Errorf("spec %q: phase %q: %d weights for %d tenants",
					s.Name, ph.Name, len(ph.Weights), len(s.Tenants))
			}
			def.Weights = append([]float64(nil), ph.Weights...)
		} else {
			def.Weights = append([]float64(nil), defaults...)
		}
		if ph.Mix != nil {
			def.Mix = &trace.DynMix{Cond: ph.Mix.Cond, Jump: ph.Mix.Jump, Call: ph.Mix.Call, Indirect: ph.Mix.Indirect}
		}
		if ph.Ramp != nil {
			def.RampFrom, def.RampTo = ph.Ramp.From, ph.Ramp.To
		}
		if ph.Burst != nil {
			def.Burst = &trace.BurstDef{Period: ph.Burst.Period, Len: ph.Burst.Len, Factor: ph.Burst.Factor}
		}
		pp.Phases = append(pp.Phases, def)
	}
	return pp, nil
}

// Canonical returns the canonical serialization: the Go struct
// marshaled with fixed field order. Parse(Canonical()) reproduces an
// identical document, which the fuzz harness enforces.
func (s *Spec) Canonical() []byte {
	data, err := json.Marshal(s)
	if err != nil {
		// Spec structs contain only marshalable fields; Validate has
		// already rejected NaN/Inf values, the one marshal error class.
		panic(fmt.Sprintf("spec: canonical marshal: %v", err))
	}
	return data
}

// Hash returns the content hash of the canonical document (first 8
// bytes of SHA-256, hex).
func (s *Spec) Hash() string {
	sum := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(sum[:8])
}

// WorkloadName returns the registered workload name. It embeds the
// content hash, so two specs share a name only when they are
// byte-identical in canonical form — the property that makes the
// (name, records) tracestore key safe across processes and disk
// spills.
func (s *Spec) WorkloadName() string {
	return WorkloadPrefix + s.Name + "@" + s.Hash()
}

// TotalRecords sums the phase budgets.
func (s *Spec) TotalRecords() int {
	total := 0
	for i := range s.Phases {
		total += s.Phases[i].Records
	}
	return total
}

// Boundaries rescales the phases onto a records budget (see
// trace.PhaseBoundaries); records <= 0 uses the spec's own total.
func (s *Spec) Boundaries(records int) []int {
	if records <= 0 {
		records = s.TotalRecords()
	}
	pp, err := s.phasedNamed("boundaries", 0)
	if err != nil {
		return make([]int, len(s.Phases)+1)
	}
	return trace.PhaseBoundaries(pp.Phases, records)
}

// Profile returns the workload's metadata profile: what a cache tier
// needs to describe a decoded spill (name, record budget, process
// count, token policy) without regenerating records. The static-set
// fields are placeholders that keep the profile Validate-clean.
func (s *Spec) Profile(records int) trace.Profile {
	if records <= 0 {
		records = s.TotalRecords()
	}
	return trace.Profile{
		Name:         s.WorkloadName(),
		Records:      records,
		Processes:    len(s.Tenants),
		SharedTokens: s.SharedTokens,
		StaticConds:  1,
	}
}

// Generate materializes the spec's trace at the given record budget
// (<= 0 means the spec total) and instance seed (0 is the canonical
// stream the tracestore caches).
func (s *Spec) Generate(records int, seed uint64) (*trace.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pp, err := s.phased(seed)
	if err != nil {
		return nil, err
	}
	return trace.GeneratePhased(pp, records)
}

// GenerateColumns is Generate in the columnar replay representation
// (the form caches store), skipping the intermediate AoS slice.
func (s *Spec) GenerateColumns(records int, seed uint64) (*trace.Columns, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	pp, err := s.phased(seed)
	if err != nil {
		return nil, err
	}
	return trace.GeneratePhasedColumns(pp, records)
}

var (
	regMu      sync.RWMutex
	registered = map[string]*Spec{}
)

// Register validates the spec and installs it as a named workload:
// into the package registry (Lookup/Names) and into the trace synth
// registry, which tracestore's default generator consults, making the
// workload resolvable by every backend and cache tier in this
// process. Registering the same document twice is a no-op; the
// content-hashed name makes collisions between different documents
// impossible.
func Register(s *Spec) error {
	if err := s.Validate(); err != nil {
		return err
	}
	name := s.WorkloadName()
	regMu.Lock()
	if _, ok := registered[name]; ok {
		regMu.Unlock()
		return nil
	}
	cp := *s
	registered[name] = &cp
	regMu.Unlock()
	return trace.RegisterSynth(name, trace.Synth{
		Profile: func(records int) (trace.Profile, error) {
			return cp.Profile(records), nil
		},
		GenerateColumns: func(records int) (*trace.Columns, error) {
			return cp.GenerateColumns(records, 0)
		},
	})
}

// Lookup returns the registered spec for a workload name.
func Lookup(name string) (*Spec, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	s, ok := registered[name]
	return s, ok
}

// Names returns all registered spec workload names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registered))
	for n := range registered {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// IsSpecWorkload reports whether a workload name is spec-derived.
func IsSpecWorkload(name string) bool {
	return strings.HasPrefix(name, WorkloadPrefix)
}
