package trace

import (
	"fmt"
	"math"
	"math/bits"

	"stbpu/internal/rng"
)

// Profile parameterizes the synthetic workload generator. Every field has a
// physical interpretation documented inline; presets.go instantiates one per
// paper workload.
type Profile struct {
	// Name seeds the generator and labels the trace.
	Name string
	// Records is the number of dynamic branch records to emit.
	Records int

	// Processes is the number of software entities interleaved in the
	// trace. SPEC workloads use 1 (plus kernel activity); servers more.
	Processes int
	// SameProgram marks all processes as instances of one binary (prefork
	// servers, browser renderers): they share static branch sets and may
	// share a secret token under STBPU's selective-sharing policy.
	SameProgram bool
	// SharedTokens tells STBPU-model simulations that the OS assigned one
	// ST per program rather than per process (paper §IV-A).
	SharedTokens bool
	// CtxSwitchMean is the mean number of branches between context
	// switches (0 disables switching). Timer-tick reschedules for SPEC,
	// much denser for servers.
	CtxSwitchMean int
	// SyscallMean is the mean number of user branches between kernel
	// entries; KernelBurstMean is the mean kernel branches per entry.
	SyscallMean     int
	KernelBurstMean int

	// Static working-set sizes (per program).
	StaticConds     int
	StaticIndirects int
	StaticCallees   int
	StaticJumps     int
	KernelConds     int

	// Conditional behaviour mixture. Fractions of the static conditional
	// set; the remainder is plain biased branches.
	HardFrac       float64 // near-random (p in [0.5, 0.7]): mcf, deepsjeng
	PatternFrac    float64 // fixed-period loop branches
	CorrelatedFrac float64 // outcome depends on global history (TAGE food)
	// BiasTakenProb is the skew of the plain biased branches.
	BiasTakenProb float64
	// LoopPeriodMax bounds loop periods (min 2).
	LoopPeriodMax int

	// Indirect branch behaviour.
	IndirectTargetsMax int // fan-out per static indirect branch (min 1)
	IndirectPhaseMean  int // uses before an indirect's mapping drifts

	// CallDepthMax bounds the modelled call stack (RSB pressure comes
	// from depths beyond the 16-entry hardware stack).
	CallDepthMax int

	// HistDepIndirectFrac is the fraction of static indirect branches
	// whose target depends on recent branch outcomes (polymorphic,
	// BHB-predictable at best); the rest are monomorphic with occasional
	// phase drift, as most real indirect call sites are. Zero means the
	// default 0.3.
	HistDepIndirectFrac float64

	// Dynamic mix: probabilities of emitting each class per step.
	// Returns are emitted to unwind the call stack and are implied by
	// CallFrac. The remainder after all fractions is conditional.
	CondFrac     float64
	JumpFrac     float64
	CallFrac     float64
	IndirectFrac float64

	// ZipfSkew sets code locality: the exponent of the Zipf distribution
	// over static branch sites (higher = tighter hot set).
	ZipfSkew float64

	// RegionExp shapes region selection: the next region is
	// int(u^RegionExp · n) for uniform u, so higher values concentrate
	// execution in hot regions (compute-bound loops) while values near 1
	// spread it across the code footprint (servers, browsers). Zero
	// means the default 2.
	RegionExp float64
	// RegionLenMean is the mean slot count of a region (zero = 10).
	RegionLenMean int
	// RegionTripsMean is the mean number of times a region repeats
	// before execution hops elsewhere (zero = 12). Low values model
	// request-processing code that rarely loops; they raise the distinct
	// branch footprint per time window and thus the cost of flushes.
	RegionTripsMean int
}

// Validate checks the profile for generator-breaking parameter errors.
func (p *Profile) Validate() error {
	if p.Records <= 0 {
		return fmt.Errorf("profile %q: Records must be positive", p.Name)
	}
	if p.Processes <= 0 {
		return fmt.Errorf("profile %q: Processes must be positive", p.Name)
	}
	if p.StaticConds <= 0 {
		return fmt.Errorf("profile %q: StaticConds must be positive", p.Name)
	}
	// All comparisons are phrased so that NaN fails them: a NaN fraction
	// would silently poison every downstream probability draw.
	for _, f := range []float64{p.CondFrac, p.JumpFrac, p.CallFrac, p.IndirectFrac} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("profile %q: dynamic-mix fraction %v out of [0,1]", p.Name, f)
		}
	}
	sum := p.CondFrac + p.JumpFrac + p.CallFrac + p.IndirectFrac
	if !(sum <= 1.0001) {
		return fmt.Errorf("profile %q: dynamic mix sums to %v > 1", p.Name, sum)
	}
	for _, f := range []float64{p.HardFrac, p.PatternFrac, p.CorrelatedFrac, p.BiasTakenProb} {
		if !(f >= 0 && f <= 1) {
			return fmt.Errorf("profile %q: fraction %v out of [0,1]", p.Name, f)
		}
	}
	if !(p.HardFrac+p.PatternFrac+p.CorrelatedFrac <= 1.0001) {
		return fmt.Errorf("profile %q: behaviour mixture exceeds 1", p.Name)
	}
	for _, f := range []float64{p.ZipfSkew, p.RegionExp, p.HistDepIndirectFrac} {
		if !(f >= 0) || math.IsInf(f, 1) {
			return fmt.Errorf("profile %q: shape parameter %v out of range", p.Name, f)
		}
	}
	return nil
}

// WithRecords returns a copy of the profile with the record budget replaced;
// experiment harnesses use it to scale runs up or down uniformly.
func (p Profile) WithRecords(n int) Profile {
	p.Records = n
	return p
}

// condKind tags the behaviour model of a static conditional branch.
type condKind uint8

const (
	condBiased condKind = iota
	condLoop
	condCorrelated
	condHard
)

// staticCond is one conditional branch site with its behaviour model.
type staticCond struct {
	pc      uint64
	target  uint64
	kind    condKind
	p       float64 // bias (condBiased, condHard)
	period  int     // condLoop
	taps    uint64  // condCorrelated: parity(ghist&taps)
	flip    bool    // condCorrelated: invert parity
	noise   float64 // condCorrelated: disobedience probability
	counter int     // condLoop: per-site iteration counter
}

// staticIndirect is one indirect jump site with its target set and a phase
// that drifts to force re-learning.
type staticIndirect struct {
	pc      uint64
	targets []uint64
	salt    uint64
	phase   int
	uses    int
	drift   int  // uses until next phase bump
	histDep bool // polymorphic: target keyed by recent outcomes
}

// slot is one position in a region's fixed branch sequence.
type slot struct {
	kind slotKind
	idx  int // index into the program's static arrays
}

type slotKind uint8

const (
	slotCond slotKind = iota
	slotJump
	slotCall
	slotRet
	slotIndirect
)

// region is a fixed mini-sequence of branch sites (a loop body / hot
// trace). Execution repeats a region for several trips before moving on,
// which makes global-history patterns recur — the structure table-based
// history predictors (gshare, TAGE) exploit in real programs.
type region struct {
	seq []slot
}

// program holds the static code layout of one binary.
type program struct {
	conds     []staticCond
	indirects []staticIndirect
	callees   []uint64     // callee entry points
	callSites []uint64     // call instruction addresses
	jumps     []staticCond // unconditional: reuse pc/target fields
	regions   []region
}

// frame is one call-stack entry: where to return to and which callee is
// executing (so the matching return instruction gets a plausible PC).
type frame struct {
	ret    uint64
	callee uint64
}

// procState is the per-process dynamic state.
type procState struct {
	callStack []frame
	prog      int
	region    int
	pos       int
	trips     int
	// kernel-side cursor (kernel bursts resume where this process left
	// off in supervisor code).
	kregion, kpos, ktrips int
}

// Generator produces synthetic traces from a profile. Construct with
// NewGenerator; a Generator is single-goroutine.
type Generator struct {
	p        Profile
	r        *rng.Rand
	programs []*program
	kernel   *program
	procs    []procState
	ghist    uint64 // global outcome history driving correlated behaviour
	// flipProb inverts a conditional's resolved outcome with this
	// probability before it is recorded or pushed to history — the
	// phase-spec "misprediction drift" knob (phased.go). Zero for flat
	// profiles, so preset streams are unchanged.
	flipProb float64
}

// progBase returns the text base address of program i. Bases are 2^37 apart
// so that distinct programs overlap in the low 32 bits — reproducing the
// BTB address-truncation aliasing the paper exploits (§II-B).
func progBase(i int) uint64 {
	return (0x0000_0000_0040_0000 + uint64(i)*0x20_0000_0000) & VAMask
}

// kernelBase is the supervisor text base (high canonical half, truncated to
// the modelled 48 bits).
const kernelBase = uint64(0xffff_8000_0000) & VAMask

// NewGenerator validates the profile and builds the static code layout.
func NewGenerator(p Profile) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{p: p, r: rng.NewFromString(p.Name)}

	numProgs := p.Processes
	if p.SameProgram {
		numProgs = 1
	}
	for i := 0; i < numProgs; i++ {
		g.programs = append(g.programs, g.buildProgram(progBase(i)))
	}
	if p.KernelConds > 0 {
		kp := p
		kp.StaticConds = p.KernelConds
		kp.StaticIndirects = max(1, p.KernelConds/16)
		kp.StaticCallees = max(1, p.KernelConds/8)
		kp.StaticJumps = max(1, p.KernelConds/8)
		kg := &Generator{p: kp, r: g.r}
		g.kernel = kg.buildProgram(kernelBase)
	}
	g.procs = make([]procState, p.Processes)
	for i := range g.procs {
		if p.SameProgram {
			g.procs[i].prog = 0
		} else {
			g.procs[i].prog = i
		}
	}
	return g, nil
}

// buildProgram lays out static branch sites for one binary starting at base.
func (g *Generator) buildProgram(base uint64) *program {
	p := &g.p
	prog := &program{}
	// Sites are spread over a footprint proportional to the working set,
	// 16-byte spaced, and unique: two static branches never share an
	// address (rejection-sampled).
	footprint := uint64(max(p.StaticConds*128, 1<<17))
	nIndirects := max(p.StaticIndirects, 1)
	nCallees := max(p.StaticCallees, 1)
	nJumps := max(p.StaticJumps, 1)
	used := make(map[uint64]struct{}, p.StaticConds+nIndirects+2*nCallees+2*nJumps)
	site := func() uint64 {
		for {
			a := (base + (g.r.Uint64n(footprint) &^ 0xf)) & VAMask
			if _, dup := used[a]; !dup {
				used[a] = struct{}{}
				return a
			}
		}
	}
	prog.conds = make([]staticCond, 0, p.StaticConds)
	for i := 0; i < p.StaticConds; i++ {
		sc := staticCond{pc: site()}
		sc.target = (sc.pc + 8 + g.r.Uint64n(1<<12)&^0x3) & VAMask
		u := g.r.Float64()
		switch {
		case u < p.HardFrac:
			sc.kind = condHard
			sc.p = 0.5 + g.r.Float64()*0.2
		case u < p.HardFrac+p.PatternFrac:
			sc.kind = condLoop
			sc.period = 2 + g.r.Intn(max(p.LoopPeriodMax-1, 1))
		case u < p.HardFrac+p.PatternFrac+p.CorrelatedFrac:
			sc.kind = condCorrelated
			// Real correlated branches depend on 1-3 specific recent
			// outcomes; wide parities would be unlearnable noise.
			for k := 1 + g.r.Intn(3); k > 0; k-- {
				sc.taps |= 1 << uint(g.r.Intn(12))
			}
			sc.flip = g.r.Bool(0.5)
			sc.noise = 0.02
		default:
			sc.kind = condBiased
			sc.p = p.BiasTakenProb
			if g.r.Bool(0.35) { // some branches biased the other way
				sc.p = 1 - sc.p
			}
		}
		prog.conds = append(prog.conds, sc)
	}
	histDepFrac := p.HistDepIndirectFrac
	if histDepFrac == 0 {
		histDepFrac = 0.3
	}
	prog.indirects = make([]staticIndirect, 0, nIndirects)
	for i := 0; i < nIndirects; i++ {
		si := staticIndirect{pc: site(), salt: g.r.Uint64(), histDep: g.r.Bool(histDepFrac)}
		fanout := 1 + g.r.Intn(max(p.IndirectTargetsMax, 1))
		si.targets = make([]uint64, 0, fanout)
		for j := 0; j < fanout; j++ {
			si.targets = append(si.targets, site())
		}
		si.drift = g.drift()
		prog.indirects = append(prog.indirects, si)
	}
	// Direct call sites have one fixed callee each, like real code.
	prog.callees = make([]uint64, 0, nCallees)
	prog.callSites = make([]uint64, 0, nCallees)
	for i := 0; i < nCallees; i++ {
		prog.callees = append(prog.callees, site())
		prog.callSites = append(prog.callSites, site())
	}
	prog.jumps = make([]staticCond, 0, nJumps)
	for i := 0; i < nJumps; i++ {
		pc := site()
		prog.jumps = append(prog.jumps, staticCond{pc: pc, target: site()})
	}
	g.buildRegions(prog)
	return prog
}

// buildRegions carves the static sites into fixed loop bodies. Site
// selection is Zipf-skewed so hot regions share hot branches, giving the
// trace realistic code locality.
func (g *Generator) buildRegions(prog *program) {
	p := &g.p
	nRegions := max(4, p.StaticConds/8)
	condZipf := rng.NewZipf(g.r, len(prog.conds), p.ZipfSkew)
	indZipf := rng.NewZipf(g.r, len(prog.indirects), p.ZipfSkew)
	// Slot-kind mixture from the dynamic mix fractions; rets mirror calls
	// so the stack stays balanced.
	total := p.CondFrac + p.JumpFrac + 2*p.CallFrac + p.IndirectFrac
	lenMean := p.RegionLenMean
	if lenMean == 0 {
		lenMean = 10
	}
	prog.regions = make([]region, 0, nRegions)
	for i := 0; i < nRegions; i++ {
		length := max(3, lenMean/2) + g.r.Intn(lenMean)
		seq := make([]slot, 0, length)
		for j := 0; j < length; j++ {
			u := g.r.Float64() * total
			switch {
			case u < p.CondFrac:
				seq = append(seq, slot{kind: slotCond, idx: condZipf.Next() % len(prog.conds)})
			case u < p.CondFrac+p.JumpFrac:
				seq = append(seq, slot{kind: slotJump, idx: g.r.Intn(len(prog.jumps))})
			case u < p.CondFrac+p.JumpFrac+p.CallFrac:
				seq = append(seq, slot{kind: slotCall, idx: g.r.Intn(len(prog.callSites))})
			case u < p.CondFrac+p.JumpFrac+2*p.CallFrac:
				seq = append(seq, slot{kind: slotRet})
			default:
				seq = append(seq, slot{kind: slotIndirect, idx: indZipf.Next() % len(prog.indirects)})
			}
		}
		prog.regions = append(prog.regions, region{seq: seq})
	}
}

func (g *Generator) drift() int {
	if g.p.IndirectPhaseMean <= 0 {
		return 1 << 30 // effectively never
	}
	return 1 + g.r.Geometric(1/float64(g.p.IndirectPhaseMean), g.p.IndirectPhaseMean*8)
}

// interval samples the branches-until-next-event for a mean; 0 mean means
// the event never fires.
func (g *Generator) interval(mean int) int {
	if mean <= 0 {
		return 1 << 30
	}
	// Exponential-ish via geometric with p = 1/mean.
	return g.r.Geometric(1/float64(mean), mean*8)
}

// Generate materializes the full trace as AoS records. The stream is
// produced columnar (GenerateColumns) and converted, so both views are
// always byte-identical.
func (g *Generator) Generate() *Trace {
	return g.GenerateColumns().Trace()
}

// GenerateColumns materializes the trace directly in the columnar
// replay representation. This is the storage format every consumer
// (tracestore, the disk/mmap tiers, trace-major replay) actually wants,
// so generating into it skips the intermediate 32-byte-per-record AoS
// slice and the conversion pass it used to pay.
func (g *Generator) GenerateColumns() *Columns {
	c := newColumns(g.p.Name, g.p.Records)
	g.fill(c, nil)
	return c
}

// Fill writes the trace into s's preallocated rows, publishing them a
// chunk at a time, so replays of s.Columns() run behind the generation.
// The rows are the ones GenerateColumns returns. s must hold exactly
// the profile's record count.
func (g *Generator) Fill(s *Stream) error {
	if n := s.cols.Len(); n != g.p.Records {
		return fmt.Errorf("trace %q: stream holds %d rows, profile generates %d", g.p.Name, n, g.p.Records)
	}
	g.fill(s.cols, s)
	return nil
}

// fill writes every row of c in order, publishing each full chunk and
// then the tail through s (nil publishes nothing).
func (g *Generator) fill(c *Columns, s *Stream) {
	p := &g.p
	n := len(c.PCs)
	pcs, targets, flags := c.PCs[:n], c.Targets[:n], c.Flags[:n]
	pids, programs := c.PIDs[:n], c.Programs[:n]

	cur := 0 // current process index
	untilCtx := g.interval(p.CtxSwitchMean)
	untilSys := g.interval(p.SyscallMean)
	kernelLeft := 0

	for i := 0; i < n; i++ {
		proc := &g.procs[cur]
		inKernel := kernelLeft > 0 && g.kernel != nil
		prog := g.programs[proc.prog]
		if inKernel {
			prog = g.kernel
			kernelLeft--
		}

		rec := g.step(prog, proc, inKernel)
		program := uint16(proc.prog)
		if inKernel {
			program = 0xffff // kernel entity
		}
		pcs[i] = rec.PC
		targets[i] = rec.Target
		flags[i] = PackFlags(rec.Kind, rec.Taken, inKernel)
		pids[i] = uint32(cur + 1)
		programs[i] = program
		if (i+1)%streamChunk == 0 {
			s.publish(i + 1)
		}

		untilCtx--
		untilSys--
		if untilSys <= 0 && p.KernelBurstMean > 0 {
			kernelLeft = g.r.Geometric(1/float64(p.KernelBurstMean), p.KernelBurstMean*8)
			untilSys = g.interval(p.SyscallMean)
		}
		if untilCtx <= 0 && p.Processes > 1 {
			cur = (cur + 1 + g.r.Intn(p.Processes-1)) % p.Processes
			untilCtx = g.interval(p.CtxSwitchMean)
		}
	}
	s.publish(n)
}

// step emits one branch record for the given program/process, advancing
// the process's region cursor. Execution loops over a region's fixed slot
// sequence for several trips, then Zipf-hops to another region.
func (g *Generator) step(prog *program, proc *procState, kernel bool) Record {
	p := &g.p
	region, pos, trips := &proc.region, &proc.pos, &proc.trips
	if kernel {
		region, pos, trips = &proc.kregion, &proc.kpos, &proc.ktrips
	}
	if *region >= len(prog.regions) {
		*region %= len(prog.regions)
	}
	seq := prog.regions[*region].seq
	if *pos >= len(seq) {
		*pos = 0
		*trips--
		if *trips <= 0 {
			// Hop to a new region; hotter (lower-numbered) regions are
			// favoured via a power-law draw shaped by RegionExp.
			exp := g.p.RegionExp
			if exp == 0 {
				exp = 2
			}
			u := math.Pow(g.r.Float64(), exp)
			*region = int(u * float64(len(prog.regions)))
			if *region >= len(prog.regions) {
				*region = len(prog.regions) - 1
			}
			tm := g.p.RegionTripsMean
			if tm == 0 {
				tm = 12
			}
			*trips = 1 + g.r.Geometric(1/float64(tm), tm*12)
			seq = prog.regions[*region].seq
		}
	}
	s := seq[*pos]
	*pos++

	depth := len(proc.callStack)
	switch {
	case depth >= p.CallDepthMax && depth > 0:
		return g.stepReturn(proc)
	case s.kind == slotCond:
		return g.stepCond(prog, s.idx)
	case s.kind == slotJump:
		j := &prog.jumps[s.idx%len(prog.jumps)]
		return Record{PC: j.pc, Target: j.target, Kind: KindDirectJump, Taken: true}
	case s.kind == slotIndirect:
		return g.stepIndirect(prog, proc, s.idx)
	case s.kind == slotCall:
		return g.stepCall(prog, proc, s.idx)
	case depth > 0:
		return g.stepReturn(proc)
	default:
		return g.stepCond(prog, s.idx)
	}
}

func (g *Generator) stepCond(prog *program, idx int) Record {
	sc := &prog.conds[idx%len(prog.conds)]
	taken := false
	switch sc.kind {
	case condBiased, condHard:
		taken = g.r.Bool(sc.p)
	case condLoop:
		sc.counter++
		taken = sc.counter%sc.period != 0
	case condCorrelated:
		taken = bits.OnesCount64(g.ghist&sc.taps)%2 == 1
		if sc.flip {
			taken = !taken
		}
		if g.r.Bool(sc.noise) {
			taken = !taken
		}
	}
	if g.flipProb > 0 && g.r.Bool(g.flipProb) {
		// Drift is a ground-truth change, not a predictor artifact: the
		// flipped direction is what the program "did", so it feeds global
		// history and the record's resolved target alike.
		taken = !taken
	}
	g.pushOutcome(taken)
	rec := Record{PC: sc.pc, Kind: KindCond, Taken: taken}
	if taken {
		rec.Target = sc.target
	} else {
		rec.Target = rec.FallThrough()
	}
	return rec
}

func (g *Generator) stepIndirect(prog *program, proc *procState, idx int) Record {
	si := &prog.indirects[idx%len(prog.indirects)]
	si.uses++
	if si.uses >= si.drift {
		si.uses = 0
		si.phase++
		si.drift = g.drift()
	}
	// Monomorphic sites take one target per phase (re-learned after each
	// drift); polymorphic sites key the target off recent global outcome
	// history, which only context-tagged (BHB mode-two) prediction can
	// follow.
	var target uint64
	if si.histDep {
		h := (g.ghist&0xff ^ si.salt) * 0x9e3779b97f4a7c15
		target = si.targets[(int(h>>56)+si.phase)%len(si.targets)]
	} else {
		target = si.targets[si.phase%len(si.targets)]
	}
	kind := KindIndirectJump
	if si.salt&1 == 1 {
		kind = KindIndirectCall
		// Indirect calls push a return address like direct calls do, so
		// call/return pairing stays LIFO for the RSB model.
		proc.callStack = append(proc.callStack, frame{ret: (si.pc + 4) & VAMask, callee: target})
	}
	return Record{PC: si.pc, Target: target, Kind: kind, Taken: true}
}

func (g *Generator) stepCall(prog *program, proc *procState, idx int) Record {
	i := idx % len(prog.callSites)
	pc := prog.callSites[i]
	target := prog.callees[i%len(prog.callees)]
	proc.callStack = append(proc.callStack, frame{ret: (pc + 4) & VAMask, callee: target})
	return Record{PC: pc, Target: target, Kind: KindDirectCall, Taken: true}
}

func (g *Generator) stepReturn(proc *procState) Record {
	f := proc.callStack[len(proc.callStack)-1]
	proc.callStack = proc.callStack[:len(proc.callStack)-1]
	// The return instruction sits at the end of the executing callee.
	pc := (f.callee + 0x3c) & VAMask
	return Record{PC: pc, Target: f.ret, Kind: KindReturn, Taken: true}
}

// pushOutcome records a conditional outcome in the generator's global
// history. Only conditional branches contribute, mirroring what a GHR-based
// predictor can observe, so correlated branches are learnable in principle.
func (g *Generator) pushOutcome(taken bool) {
	g.ghist <<= 1
	if taken {
		g.ghist |= 1
	}
}

// Generate builds the trace for a profile in one call.
func Generate(p Profile) (*Trace, error) {
	g, err := NewGenerator(p)
	if err != nil {
		return nil, err
	}
	return g.Generate(), nil
}

// GenerateColumns builds the columnar trace for a profile in one call.
func GenerateColumns(p Profile) (*Columns, error) {
	g, err := NewGenerator(p)
	if err != nil {
		return nil, err
	}
	return g.GenerateColumns(), nil
}
