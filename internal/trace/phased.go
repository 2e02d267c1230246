// Phase-structured workload synthesis: the engine beneath the
// declarative spec layer (internal/trace/spec). A phased workload is a
// set of tenants (processes with their own behaviour profiles, mapped
// onto shared or distinct program images) scheduled through an ordered
// list of phases. Each phase fixes the tenant rate weights, the
// inter-context-switch arrival process (fixed, geometric, Gamma, or
// Weibull), an optional dynamic branch-mix override, a misprediction
// drift probability, and optional ramp/burst load modifiers — the
// normal/sweep/burst trio of serverless trace synthesizers, recast in
// branch records instead of RPS.
//
// Generation is a pure function of (PhasedProfile, Seed): one rng
// stream drives construction and emission in a fixed order, so the
// same profile yields byte-identical traces in every process. That is
// the property that lets spec workloads flow through the tracestore,
// the disk/mmap tiers, resume journals, and remote fleets unchanged.

package trace

import (
	"fmt"
	"math"

	"stbpu/internal/rng"
)

// ArrivalKind selects the inter-context-switch interval distribution.
type ArrivalKind uint8

const (
	// ArrivalGeometric is the flat generator's default: geometric
	// intervals (discrete exponential), memoryless switching.
	ArrivalGeometric ArrivalKind = iota
	// ArrivalFixed switches on a strict period (timer-tick scheduling).
	ArrivalFixed
	// ArrivalGamma draws Gamma(shape, mean/shape) intervals; shape < 1
	// gives burstier-than-Poisson cadence, shape > 1 more regular.
	ArrivalGamma
	// ArrivalWeibull draws Weibull intervals with the given shape,
	// scaled so the mean matches; heavy-tailed for shape < 1.
	ArrivalWeibull
)

// String names the arrival kind (spec serialization uses these).
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalGeometric:
		return "geometric"
	case ArrivalFixed:
		return "fixed"
	case ArrivalGamma:
		return "gamma"
	case ArrivalWeibull:
		return "weibull"
	}
	return fmt.Sprintf("ArrivalKind(%d)", uint8(k))
}

// Arrival is an inter-context-switch interval model.
type Arrival struct {
	Kind ArrivalKind
	// Mean is the mean interval in records (>= 1).
	Mean float64
	// Shape parameterizes Gamma/Weibull; ignored for fixed/geometric.
	Shape float64
}

func (a Arrival) validate() error {
	if !(a.Mean >= 1 && a.Mean <= 1e9) {
		return fmt.Errorf("arrival mean %v out of [1, 1e9]", a.Mean)
	}
	switch a.Kind {
	case ArrivalGeometric, ArrivalFixed:
	case ArrivalGamma, ArrivalWeibull:
		if !(a.Shape > 0 && a.Shape <= 100) {
			return fmt.Errorf("arrival shape %v out of (0, 100]", a.Shape)
		}
	default:
		return fmt.Errorf("unknown arrival kind %d", a.Kind)
	}
	return nil
}

// sampleFloat draws one raw (unscaled, unrounded) interval.
func (a Arrival) sampleFloat(r *rng.Rand) float64 {
	switch a.Kind {
	case ArrivalFixed:
		return a.Mean
	case ArrivalGamma:
		return a.Mean / a.Shape * gammaSample(r, a.Shape)
	case ArrivalWeibull:
		scale := a.Mean / math.Gamma(1+1/a.Shape)
		return scale * math.Pow(-math.Log1p(-r.Float64()), 1/a.Shape)
	default: // geometric
		return float64(geometricSample(r, a.Mean))
	}
}

// geometricSample mirrors Generator.interval: geometric with p = 1/mean,
// capped at 8x the mean like the flat generator's event intervals.
func geometricSample(r *rng.Rand, mean float64) int {
	m := int(mean + 0.5)
	if m <= 1 {
		return 1
	}
	return r.Geometric(1/float64(m), m*8)
}

// normalSample draws a standard normal via Box-Muller (deterministic:
// two uniforms from the stream per sample).
func normalSample(r *rng.Rand) float64 {
	u1 := 1 - r.Float64() // (0, 1]: keep Log finite
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// gammaSample draws Gamma(shape, 1) via Marsaglia-Tsang squeeze
// (shape >= 1) with the standard power boost for shape < 1.
func gammaSample(r *rng.Rand, shape float64) float64 {
	if shape < 1 {
		u := 1 - r.Float64()
		return gammaSample(r, shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := normalSample(r)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// DynMix overrides the dynamic branch-class mixture for one phase.
// Fractions must be non-negative with Cond > 0 and a sum <= 1; the
// remainder after Cond+Jump+2*Call+Indirect is conditional, exactly as
// in Profile.
type DynMix struct {
	Cond, Jump, Call, Indirect float64
}

func (m DynMix) validate() error {
	for _, f := range []float64{m.Cond, m.Jump, m.Call, m.Indirect} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("mix fraction %v out of [0,1]", f)
		}
	}
	if !(m.Cond > 0) {
		return fmt.Errorf("mix needs a positive conditional fraction")
	}
	if !(m.Cond+m.Jump+m.Call+m.Indirect <= 1.0001) {
		return fmt.Errorf("mix sums past 1")
	}
	return nil
}

// BurstDef periodically densifies context switching within a phase:
// every Period records, switching runs Factor times denser for the
// first Len records of the window.
type BurstDef struct {
	Period int
	Len    int
	Factor float64
}

func (b BurstDef) validate() error {
	if b.Period < 2 {
		return fmt.Errorf("burst period %d < 2", b.Period)
	}
	if b.Len < 1 || b.Len > b.Period {
		return fmt.Errorf("burst len %d out of [1, period]", b.Len)
	}
	if !(b.Factor >= 1 && b.Factor <= 1000) {
		return fmt.Errorf("burst factor %v out of [1, 1000]", b.Factor)
	}
	return nil
}

// TenantSpec is one scheduled entity of a phased workload.
type TenantSpec struct {
	// Name labels the tenant (diagnostics only).
	Name string
	// Profile supplies the tenant's behaviour knobs (static working
	// set, conditional mixture, kernel activity). Records, Processes,
	// and SameProgram are ignored: a tenant is exactly one process.
	Profile Profile
	// Image is the program-image index. Tenants sharing an index run
	// the same static code (prefork workers); the first tenant with a
	// given index defines the image's layout.
	Image int
}

// PhaseDef is one phase of a phased workload.
type PhaseDef struct {
	// Name labels the phase (result tables key on it).
	Name string
	// Records is the phase's share of the trace, rescaled
	// proportionally when a run requests a different total budget.
	Records int
	// Weights are per-tenant scheduling weights (len == tenants). On
	// each context switch the next tenant is drawn weight-proportional,
	// so a tenant's expected record share within the phase equals its
	// normalized weight.
	Weights []float64
	// Switch is the inter-context-switch arrival model.
	Switch Arrival
	// Mix optionally replaces the dynamic branch mixture for this
	// phase (regions are rebuilt per image with the new slot mix).
	Mix *DynMix
	// Drift flips each conditional outcome with this probability,
	// modelling phase-local behavioural noise (mispredictions rise
	// with it regardless of predictor).
	Drift float64
	// RampFrom/RampTo linearly scale switch density across the phase
	// (vhive "sweep"): the sampled interval is divided by the current
	// load multiplier. Both zero means flat (multiplier 1).
	RampFrom, RampTo float64
	// Burst optionally adds periodic switch-density bursts.
	Burst *BurstDef
}

func (ph *PhaseDef) validate(tenants int) error {
	if ph.Records <= 0 {
		return fmt.Errorf("phase %q: Records must be positive", ph.Name)
	}
	if len(ph.Weights) != 0 && len(ph.Weights) != tenants {
		return fmt.Errorf("phase %q: %d weights for %d tenants", ph.Name, len(ph.Weights), tenants)
	}
	sum := 0.0
	for _, w := range ph.Weights {
		if !(w >= 0 && w < math.Inf(1)) {
			return fmt.Errorf("phase %q: weight %v out of range", ph.Name, w)
		}
		sum += w
	}
	if len(ph.Weights) != 0 && !(sum > 0) {
		return fmt.Errorf("phase %q: weights sum to zero", ph.Name)
	}
	if err := ph.Switch.validate(); err != nil {
		return fmt.Errorf("phase %q: %v", ph.Name, err)
	}
	if ph.Mix != nil {
		if err := ph.Mix.validate(); err != nil {
			return fmt.Errorf("phase %q: %v", ph.Name, err)
		}
	}
	if !(ph.Drift >= 0 && ph.Drift <= 0.5) {
		return fmt.Errorf("phase %q: drift %v out of [0, 0.5]", ph.Name, ph.Drift)
	}
	if (ph.RampFrom == 0) != (ph.RampTo == 0) {
		return fmt.Errorf("phase %q: ramp endpoints must both be set or both zero", ph.Name)
	}
	if ph.RampFrom != 0 {
		for _, v := range []float64{ph.RampFrom, ph.RampTo} {
			if !(v > 0 && v <= 1000) {
				return fmt.Errorf("phase %q: ramp multiplier %v out of (0, 1000]", ph.Name, v)
			}
		}
	}
	if ph.Burst != nil {
		if err := ph.Burst.validate(); err != nil {
			return fmt.Errorf("phase %q: %v", ph.Name, err)
		}
	}
	return nil
}

// PhasedProfile parameterizes a phase-structured multi-tenant workload.
type PhasedProfile struct {
	// Name seeds the generator and labels the trace.
	Name string
	// Seed is mixed into the name-derived rng state so validation
	// harnesses can draw many independent trace instances of one
	// profile. Zero is the canonical stream used by the tracestore.
	Seed    uint64
	Tenants []TenantSpec
	Phases  []PhaseDef
}

// Validate checks the phased profile for generator-breaking errors.
func (pp *PhasedProfile) Validate() error {
	if pp.Name == "" {
		return fmt.Errorf("phased profile: empty name")
	}
	if len(pp.Tenants) < 1 || len(pp.Tenants) > 64 {
		return fmt.Errorf("phased profile %q: %d tenants out of [1, 64]", pp.Name, len(pp.Tenants))
	}
	if len(pp.Phases) < 1 || len(pp.Phases) > 64 {
		return fmt.Errorf("phased profile %q: %d phases out of [1, 64]", pp.Name, len(pp.Phases))
	}
	for i := range pp.Tenants {
		t := &pp.Tenants[i]
		if t.Image < 0 || t.Image >= len(pp.Tenants) {
			return fmt.Errorf("phased profile %q: tenant %d image %d out of range", pp.Name, i, t.Image)
		}
		prof := t.Profile
		prof.Records = 1 // tenant profiles carry no record budget
		prof.Processes = 1
		if err := prof.Validate(); err != nil {
			return fmt.Errorf("phased profile %q: tenant %d: %v", pp.Name, i, err)
		}
	}
	total := 0
	for i := range pp.Phases {
		if err := pp.Phases[i].validate(len(pp.Tenants)); err != nil {
			return fmt.Errorf("phased profile %q: %v", pp.Name, err)
		}
		total += pp.Phases[i].Records
		if total > 1<<30 {
			return fmt.Errorf("phased profile %q: total records exceed 2^30", pp.Name)
		}
	}
	return nil
}

// TotalRecords sums the phases' record budgets.
func (pp *PhasedProfile) TotalRecords() int {
	total := 0
	for i := range pp.Phases {
		total += pp.Phases[i].Records
	}
	return total
}

// PhaseBoundaries rescales the phases proportionally onto a records
// budget and returns len(phases)+1 cumulative boundaries: phase i
// spans [b[i], b[i+1]). Rounding is cumulative so the boundaries are
// monotone and b[len] == records exactly; a tiny budget can leave a
// phase with zero records.
func PhaseBoundaries(phases []PhaseDef, records int) []int {
	total := 0
	for i := range phases {
		total += phases[i].Records
	}
	b := make([]int, len(phases)+1)
	if total <= 0 || records <= 0 {
		return b
	}
	cum := 0
	for i := range phases {
		cum += phases[i].Records
		b[i+1] = int(math.Round(float64(records) * float64(cum) / float64(total)))
	}
	b[len(phases)] = records
	return b
}

// PhasedGenerator produces phase-structured traces. Construct with
// NewPhasedGenerator; a PhasedGenerator is single-goroutine and
// single-shot (Generate consumes it).
type PhasedGenerator struct {
	pp      PhasedProfile
	records int
	core    *Generator // stepping machinery: shared rng, ghist, call stacks
	images  []*program
	// baseRegions[image] is the region set built with the owning
	// tenant's own mix; regions[phase][image] holds per-phase
	// overrides (nil for phases without a mix override).
	baseRegions [][]region
	regions     [][][]region
}

// phasedSeed derives the rng seed: FNV-1a of the name, mixed with the
// instance seed so distinct seeds give independent streams.
func phasedSeed(name string, seed uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	if seed != 0 {
		s := seed
		h ^= rng.SplitMix64(&s)
	}
	return h
}

// NewPhasedGenerator validates the profile and builds the static code
// layout (images, kernel, per-phase regions) for a records-record run.
func NewPhasedGenerator(pp PhasedProfile, records int) (*PhasedGenerator, error) {
	if err := pp.Validate(); err != nil {
		return nil, err
	}
	if records <= 0 {
		records = pp.TotalRecords()
	}
	g := &PhasedGenerator{pp: pp, records: records}
	g.core = &Generator{r: rng.New(phasedSeed(pp.Name, pp.Seed))}

	// Image i's layout comes from the first tenant using image i.
	imageOwner := map[int]int{}
	maxImage := 0
	for ti := range pp.Tenants {
		img := pp.Tenants[ti].Image
		if _, ok := imageOwner[img]; !ok {
			imageOwner[img] = ti
		}
		if img > maxImage {
			maxImage = img
		}
	}
	g.images = make([]*program, maxImage+1)
	kernelConds := 0
	for img := 0; img <= maxImage; img++ {
		owner, ok := imageOwner[img]
		if !ok {
			return nil, fmt.Errorf("phased profile %q: image %d has no tenant", pp.Name, img)
		}
		g.core.p = pp.Tenants[owner].Profile
		g.images[img] = g.core.buildProgram(progBase(img))
		g.baseRegions = append(g.baseRegions, g.images[img].regions)
		if kc := pp.Tenants[owner].Profile.KernelConds; kc > kernelConds {
			kernelConds = kc
		}
	}
	if kernelConds > 0 {
		kp := pp.Tenants[imageOwner[0]].Profile
		kp.StaticConds = kernelConds
		kp.StaticIndirects = max(1, kernelConds/16)
		kp.StaticCallees = max(1, kernelConds/8)
		kp.StaticJumps = max(1, kernelConds/8)
		g.core.p = kp
		g.core.kernel = g.core.buildProgram(kernelBase)
	}

	// Per-phase region sets for phases that override the dynamic mix.
	// Built in (phase, image) order so rng consumption is fixed.
	g.regions = make([][][]region, len(pp.Phases))
	for pi := range pp.Phases {
		mix := pp.Phases[pi].Mix
		if mix == nil {
			continue
		}
		g.regions[pi] = make([][]region, len(g.images))
		for img := range g.images {
			p := pp.Tenants[imageOwner[img]].Profile
			p.CondFrac, p.JumpFrac = mix.Cond, mix.Jump
			p.CallFrac, p.IndirectFrac = mix.Call, mix.Indirect
			g.core.p = p
			tmp := *g.images[img]
			tmp.regions = nil
			g.core.buildRegions(&tmp)
			g.regions[pi][img] = tmp.regions
		}
	}

	g.core.procs = make([]procState, len(pp.Tenants))
	for ti := range g.core.procs {
		g.core.procs[ti].prog = pp.Tenants[ti].Image
	}
	return g, nil
}

// weightsOf returns the phase's effective cumulative tenant weights.
func (g *PhasedGenerator) weightsOf(ph *PhaseDef) []float64 {
	n := len(g.pp.Tenants)
	cum := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		w := 1.0
		if len(ph.Weights) == n {
			w = ph.Weights[i]
		}
		sum += w
		cum[i] = sum
	}
	for i := range cum {
		cum[i] /= sum
	}
	return cum
}

// loadAt returns the switch-density multiplier at phase offset i of n.
func loadAt(ph *PhaseDef, i, n int) float64 {
	load := 1.0
	if ph.RampFrom != 0 && n > 1 {
		load = ph.RampFrom + (ph.RampTo-ph.RampFrom)*float64(i)/float64(n-1)
	}
	if ph.Burst != nil && i%ph.Burst.Period < ph.Burst.Len {
		load *= ph.Burst.Factor
	}
	return load
}

// Generate materializes the full phase-structured trace as AoS records.
// The stream is produced columnar (GenerateColumns) and converted, so
// both views are always byte-identical.
func (g *PhasedGenerator) Generate() *Trace {
	return g.GenerateColumns().Trace()
}

// GenerateColumns materializes the phase-structured trace directly in
// the columnar replay representation, skipping the intermediate AoS
// slice exactly like Generator.GenerateColumns.
func (g *PhasedGenerator) GenerateColumns() *Columns {
	c := newColumns(g.pp.Name, g.records)
	g.fill(c, nil)
	return c
}

// Fill is Generator.Fill for a phase-structured trace: it writes the
// rows GenerateColumns returns into s, publishing them a chunk at a
// time. s must hold exactly the generator's record count.
func (g *PhasedGenerator) Fill(s *Stream) error {
	if n := s.cols.Len(); n != g.records {
		return fmt.Errorf("phased profile %q: stream holds %d rows, generator makes %d", g.pp.Name, n, g.records)
	}
	g.fill(s.cols, s)
	return nil
}

// fill writes every row of c in order, publishing each full chunk and
// then the tail through s (nil publishes nothing).
func (g *PhasedGenerator) fill(c *Columns, s *Stream) {
	core := g.core
	bounds := PhaseBoundaries(g.pp.Phases, g.records)

	cur := 0 // current tenant
	core.p = g.pp.Tenants[cur].Profile
	untilSys := core.interval(core.p.SyscallMean)
	kernelLeft := 0

	for pi := range g.pp.Phases {
		ph := &g.pp.Phases[pi]
		n := bounds[pi+1] - bounds[pi]
		if n <= 0 {
			continue
		}
		// Install this phase's regions (base regions when no override).
		for img, prog := range g.images {
			if g.regions[pi] != nil {
				prog.regions = g.regions[pi][img]
			} else {
				prog.regions = g.baseRegions[img]
			}
		}
		core.flipProb = ph.Drift
		cum := g.weightsOf(ph)
		nextSwitch := g.switchInterval(ph, 0, n)
		// The phase's rows of every column, so row i of the phase is
		// element i of each.
		lo, hi := bounds[pi], bounds[pi+1]
		pcs, targets, flags := c.PCs[lo:hi], c.Targets[lo:hi], c.Flags[lo:hi]
		pids, programs := c.PIDs[lo:hi], c.Programs[lo:hi]

		for i := 0; i < n; i++ {
			proc := &core.procs[cur]
			inKernel := kernelLeft > 0 && core.kernel != nil
			prog := g.images[proc.prog]
			if inKernel {
				prog = core.kernel
				kernelLeft--
			}

			rec := core.step(prog, proc, inKernel)
			program := uint16(proc.prog)
			if inKernel {
				program = 0xffff
			}
			pcs[i] = rec.PC
			targets[i] = rec.Target
			flags[i] = PackFlags(rec.Kind, rec.Taken, inKernel)
			pids[i] = uint32(cur + 1)
			programs[i] = program
			if (lo+i+1)%streamChunk == 0 {
				s.publish(lo + i + 1)
			}

			untilSys--
			if untilSys <= 0 && core.p.KernelBurstMean > 0 {
				kernelLeft = core.r.Geometric(1/float64(core.p.KernelBurstMean), core.p.KernelBurstMean*8)
				untilSys = core.interval(core.p.SyscallMean)
			}
			nextSwitch--
			if nextSwitch <= 0 {
				if len(g.pp.Tenants) > 1 {
					// Weight-proportional draw over all tenants; a
					// self-draw is a no-op switch, which keeps each
					// tenant's expected record share exactly at its
					// normalized weight (renewal argument: segment
					// owner is iid and independent of segment length).
					u := core.r.Float64()
					next := 0
					for next < len(cum)-1 && cum[next] < u {
						next++
					}
					if next != cur {
						cur = next
						core.p = g.pp.Tenants[cur].Profile
					}
				}
				nextSwitch = g.switchInterval(ph, i+1, n)
			}
		}
		// Phase boundaries reset the mix, not the tenants: regions for
		// the next phase are installed above; cursors, call stacks, and
		// kernel state carry across so control flow stays continuous.
	}
	s.publish(g.records)
}

// switchInterval samples the records until the next context switch at
// phase offset i, compressing the raw arrival draw by the local load.
func (g *PhasedGenerator) switchInterval(ph *PhaseDef, i, n int) int {
	raw := ph.Switch.sampleFloat(g.core.r)
	load := loadAt(ph, i, n)
	iv := int(raw/load + 0.5)
	if iv < 1 {
		iv = 1
	}
	return iv
}

// GeneratePhased builds a phase-structured trace in one call, rescaled
// to records (<= 0 means the profile's own total).
func GeneratePhased(pp PhasedProfile, records int) (*Trace, error) {
	g, err := NewPhasedGenerator(pp, records)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// GeneratePhasedColumns is GeneratePhased in the columnar replay
// representation, skipping the intermediate AoS slice.
func GeneratePhasedColumns(pp PhasedProfile, records int) (*Columns, error) {
	g, err := NewPhasedGenerator(pp, records)
	if err != nil {
		return nil, err
	}
	return g.GenerateColumns(), nil
}
