// Package stbpu is the public façade of the STBPU reproduction: a secure
// branch prediction unit that defends against collision-based BPU side
// channels and transient-execution attacks by keying every predictor
// index/tag computation with per-entity secret tokens, XOR-encrypting
// stored targets, and re-randomizing tokens when monitored event counters
// (mispredictions, BTB evictions) hit OS-configured thresholds.
//
// Reproduces: "STBPU: A Reasonably Secure Branch Prediction Unit",
// Zhang, Lesch, Koltermann, Evtyushkin — DSN 2022 (arXiv:2108.02156).
//
// Quick start:
//
//	model := stbpu.NewProtected(stbpu.Config{Predictor: stbpu.TAGE64})
//	tr, _ := stbpu.GenerateWorkload("505.mcf", 100_000)
//	res := stbpu.Simulate(model, tr)
//	fmt.Printf("OAE %.3f after %d re-randomizations\n", res.OAE(), res.Rerandomizations)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured record of every table and figure.
package stbpu

import (
	"io"
	"runtime"
	"sync"

	"stbpu/internal/core"
	"stbpu/internal/defenses"
	"stbpu/internal/pt"
	"stbpu/internal/sim"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// Predictor selects the conditional direction predictor of a model.
type Predictor = core.DirKind

// Available predictors (paper §VII-B2).
const (
	// SKLCond is the Skylake-style hybrid baseline predictor.
	SKLCond = core.DirSKLCond
	// TAGE8 is TAGE-SC-L 8KB.
	TAGE8 = core.DirTAGE8
	// TAGE64 is TAGE-SC-L 64KB.
	TAGE64 = core.DirTAGE64
	// Perceptron is PerceptronBP.
	Perceptron = core.DirPerceptron
)

// Thresholds are the ST re-randomization budgets; see DeriveThresholds.
type Thresholds = token.Thresholds

// DeriveThresholds computes Γ = r·C budgets from the attack-difficulty
// factor r. The paper operates at r = 0.05 (≈41.9k mispredictions, ≈26.5k
// evictions).
func DeriveThresholds(r float64) Thresholds { return token.Derive(r) }

// Config assembles a protected model.
type Config struct {
	// Predictor picks the direction predictor (default SKLCond).
	Predictor Predictor
	// Thresholds overrides the r=0.05 defaults; nil keeps them.
	Thresholds *Thresholds
	// SharedTokens keys secret tokens by program instead of process
	// (the OS's selective history sharing for pre-forked servers).
	SharedTokens bool
	// Seed fixes the token PRNG for reproducible runs.
	Seed uint64
}

// Model is a BPU that can replay trace records. Both protected and
// unprotected variants satisfy it.
type Model = sim.Model

// NewProtected builds an STBPU-protected predictor.
func NewProtected(cfg Config) Model {
	return core.NewModel(core.ModelConfig{
		Dir:          cfg.Predictor,
		Thresholds:   cfg.Thresholds,
		SharedTokens: cfg.SharedTokens,
		Seed:         cfg.Seed,
	})
}

// NewUnprotected builds the deterministic legacy twin of a predictor.
func NewUnprotected(p Predictor) Model {
	return &sim.UnitModel{ModelName: p.String(), Unit: core.NewUnprotectedUnit(p)}
}

// Trace is a branch-instruction trace.
type Trace = trace.Trace

// Result aggregates a simulation run; see its OAE, DirectionRate and
// TargetRate methods.
type Result = sim.Result

// GenerateWorkload synthesizes a named workload trace with the given
// record budget. Workloads returns the available names.
func GenerateWorkload(name string, records int) (*Trace, error) {
	p, err := trace.Preset(name)
	if err != nil {
		return nil, err
	}
	return trace.Generate(p.WithRecords(records))
}

// Workloads lists all built-in workload presets (23 SPEC CPU 2017 plus
// server/interactive applications, per the paper's Fig. 3).
func Workloads() []string { return trace.PresetNames() }

// Simulate replays a trace through a model and returns aggregate
// statistics.
func Simulate(m Model, tr *Trace) Result { return sim.Run(m, tr) }

// ---------------------------------------------------------------------------
// Extensions beyond the Fig. 3 lineup: related-work defenses (§VIII),
// the ITTAGE indirect predictor (§IV generality), microcode-style
// protection models, and trace I/O in both binary formats.

// Defense identifies a related-work secure-BPU design from §VIII.
type Defense = defenses.Kind

// Related-work defense models (§VIII), for head-to-head comparison.
const (
	// BRB is the branch retention buffer (Vougioukas et al., HPCA 2019).
	BRB = defenses.KindBRB
	// BSUP is two-level encryption (Lee, Ishii, Sunwoo, TACO 2020).
	BSUP = defenses.KindBSUP
	// ZhaoDAC21 is lightweight XOR isolation (Zhao et al., DAC 2021).
	ZhaoDAC21 = defenses.KindZhao
	// ExynosXOR is the Samsung Exynos target encryption (ISCA 2020).
	ExynosXOR = defenses.KindExynos
)

// NewDefense builds a related-work defense model for comparison runs.
func NewDefense(d Defense, seed uint64) Model {
	return defenses.New(d, defenses.Options{Seed: seed})
}

// Protection identifies a Fig. 3 protection model (microcode flushing,
// conservative restructuring, or STBPU itself).
type Protection = sim.ModelKind

// Fig. 3 protection models.
const (
	// Baseline is the unprotected Skylake-style BPU.
	Baseline = sim.KindBaseline
	// Ucode1 models IBPB+IBRS+STIBP microcode protection.
	Ucode1 = sim.KindUcode1
	// Ucode2 models IBPB+IBRS microcode protection.
	Ucode2 = sim.KindUcode2
	// Conservative models the full-address, reduced-capacity redesign.
	Conservative = sim.KindConservative
	// STBPU is the paper's design.
	STBPU = sim.KindSTBPU
)

// NewProtection builds one of the Fig. 3 protection models.
func NewProtection(p Protection, cfg Config) Model {
	return sim.New(p, sim.Options{
		SharedTokens: cfg.SharedTokens,
		Thresholds:   cfg.Thresholds,
		Dir:          cfg.Predictor,
		Seed:         cfg.Seed,
	})
}

// NewProtectedITTAGE builds an STBPU model with a token-keyed ITTAGE
// indirect-target predictor attached ahead of the BTB mode-two path (the
// §IV generality demonstration for indirect prediction).
func NewProtectedITTAGE(cfg Config) Model {
	return core.NewModel(core.ModelConfig{
		Dir:            cfg.Predictor,
		Thresholds:     cfg.Thresholds,
		SharedTokens:   cfg.SharedTokens,
		Seed:           cfg.Seed,
		IndirectITTAGE: true,
	})
}

// WriteTrace encodes a trace in the STBT record-delta format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.Write(w, tr) }

// ReadTrace decodes an STBT stream.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// WriteTracePT encodes a trace as an Intel-PT-style STPT packet stream
// and reports its packet composition.
func WriteTracePT(w io.Writer, tr *Trace) (pt.Stats, error) { return pt.Encode(w, tr) }

// ReadTracePT decodes an STPT packet stream.
func ReadTracePT(r io.Reader) (*Trace, error) { return pt.Decode(r) }

// Run pairs a model constructor with a workload for batch simulation.
// Models are stateful single-owner structures (like the hardware they
// model), so the batch API takes constructors rather than instances.
type Run struct {
	// Name labels the run in results (defaults to model/workload).
	Name string
	// NewModel constructs a fresh model for this run.
	NewModel func() Model
	// Trace is the workload to replay.
	Trace *Trace
}

// SimulateMany executes runs concurrently (one goroutine per run, bounded
// by GOMAXPROCS through the scheduler) and returns results in input
// order. Each run gets its own freshly constructed model, so no state is
// shared between goroutines.
func SimulateMany(runs []Run) []Result {
	results := make([]Result, len(runs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, r := range runs {
		wg.Add(1)
		go func(i int, r Run) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			res := sim.Run(r.NewModel(), r.Trace)
			if r.Name != "" {
				res.Model = r.Name
			}
			results[i] = res
		}(i, r)
	}
	wg.Wait()
	return results
}
