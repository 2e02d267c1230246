package cpu

// pipeline.go is the stage-driven engine: an explicit out-of-order
// pipeline with a reorder buffer, issue queue, load/store queues,
// functional-unit ports, and a decoupled front end. It complements the
// interval model in cpu.go: the interval model charges a *fixed* penalty
// per misprediction, while here the penalty emerges from the machine state
// — a branch that depends on a missing load resolves late, holds the
// front end longer, and costs more, exactly the coupling gem5's
// DerivO3CPU exhibits. The ablation bench compares both engines.
//
// It is trace-driven: wrong-path execution is not simulated (records are
// the correct path); a misprediction instead blocks the front end from
// the fetch of the mispredicted branch until its resolution plus a
// redirect penalty, the standard trace-driven approximation.

import (
	"fmt"

	"stbpu/internal/bpu"
	"stbpu/internal/cache"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// opKind classifies micro-ops.
type opKind uint8

const (
	opALU opKind = iota
	opLoad
	opStore
	opBranch
)

// uop is one in-flight micro-op.
type uop struct {
	kind opKind
	seq  uint64
	// deps are producer sequence numbers; ^uint64(0) means none.
	deps [2]uint64
	// addr is the data address for loads/stores.
	addr uint64
	// lat is the execution latency once issued (loads resolve it against
	// the cache at issue time).
	lat uint64

	thread int

	// branch bookkeeping
	isBranch   bool
	mispredict bool
	btbMiss    bool

	issued     bool
	done       bool
	doneCycle  uint64
	fetchCycle uint64
}

const noDep = ^uint64(0)

// PipelineConfig extends the core Config with stage-model parameters.
type PipelineConfig struct {
	Config
	// FetchQueue is the decoupled fetch buffer depth (default 2×Width).
	FetchQueue int
	// RedirectPenalty is the post-resolution front-end redirect cost
	// (default 3; the bulk of a misprediction's cost is the resolution
	// delay itself).
	RedirectPenalty int
	// ALUPorts, LoadPorts, StorePorts, BranchPorts bound per-cycle issue
	// by kind (defaults 4/2/1/1).
	ALUPorts, LoadPorts, StorePorts, BranchPorts int
	// DepChance4 is the per-op chance in quarters (0..4) that an op
	// depends on its predecessor, steering dependency-chain depth
	// (default 2 ≈ 50%).
	DepChance4 int
}

// DefaultPipelineConfig returns the Table IV core as a pipeline model.
func DefaultPipelineConfig() PipelineConfig {
	return PipelineConfig{
		Config:          TableIVConfig(),
		FetchQueue:      16,
		RedirectPenalty: 3,
		ALUPorts:        4,
		LoadPorts:       2,
		StorePorts:      1,
		BranchPorts:     1,
		DepChance4:      2,
	}
}

// Validate rejects degenerate geometries.
func (c PipelineConfig) Validate() error {
	if c.Width <= 0 || c.ROB <= 0 || c.IQ <= 0 || c.LQ <= 0 || c.SQ <= 0 {
		return fmt.Errorf("cpu: non-positive structure size in %+v", c.Config)
	}
	if c.FetchQueue <= 0 {
		return fmt.Errorf("cpu: non-positive fetch queue %d", c.FetchQueue)
	}
	if c.ALUPorts <= 0 || c.LoadPorts <= 0 || c.StorePorts <= 0 || c.BranchPorts <= 0 {
		return fmt.Errorf("cpu: non-positive port count")
	}
	return nil
}

// PipelineStats reports where cycles went.
type PipelineStats struct {
	Cycles       uint64
	Instructions uint64

	FetchStallCycles    uint64 // front end blocked on redirect/icache
	DispatchStallCycles uint64 // ROB/IQ/LQ/SQ full
	Squashes            uint64
	// ResolveLatencySum / Squashes is the mean misprediction resolution
	// delay (fetch-to-execute of the mispredicted branch).
	ResolveLatencySum uint64
}

// IPC returns instructions per cycle.
func (s PipelineStats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// MeanResolveLatency is the average misprediction resolution delay.
func (s PipelineStats) MeanResolveLatency() float64 {
	if s.Squashes == 0 {
		return 0
	}
	return float64(s.ResolveLatencySum) / float64(s.Squashes)
}

// opStream turns a record stream into the deterministic µop sequence both
// engines share: `block` ALU/load ops followed by the branch op. The
// expansion depends only on the record and its index, so protected and
// unprotected models compare on identical instruction streams.
type opStream struct {
	cfg    *PipelineConfig
	core   *PipelineCore
	trace  *trace.Trace
	thread int

	idx     int    // next record
	pending []uop  // ops of the current record not yet emitted
	seq     uint64 // per-thread op sequence
}

func (s *opStream) exhausted() bool { return s.idx >= len(s.trace.Records) && len(s.pending) == 0 }

// refill expands the next record into pending µops.
func (s *opStream) refill() {
	if len(s.pending) > 0 || s.idx >= len(s.trace.Records) {
		return
	}
	rec := s.trace.Records[s.idx]
	if s.thread == 1 {
		// SMT thread separation in the shared token table.
		rec.PID += 1 << 16
		rec.Program += 1 << 12
	}
	i := s.idx
	s.idx++

	h := recHash(rec.PC, rec.Target, i)
	block := 1 + int(h%uint64(2*s.cfg.InstrPerBranch))
	nLoads := int(float64(block) * s.cfg.LoadFrac)

	// Front-end events for this record: icache access now (fetch time),
	// prediction via the BPU model.
	il := s.core.mem.AccessInstr(rec.PC)
	if il > 4 {
		s.core.icacheStall += uint64(il) / 2
	}
	_, ev := s.core.bpu.Step(rec)
	s.core.branch[s.thread].Note(ev)

	ops := make([]uop, 0, block+1)
	for j := 0; j < block; j++ {
		op := uop{kind: opALU, lat: 1, thread: s.thread, deps: [2]uint64{noDep, noDep}}
		if j < nLoads {
			op.kind = opLoad
			op.addr = loadAddr(s.cfg.DataFootprint, h, j)
		} else if j == nLoads && h>>16%8 == 0 {
			op.kind = opStore
			op.addr = loadAddr(s.cfg.DataFootprint, h, j)
			op.lat = 1
		}
		// Dependency chain: with probability DepChance4/4 an op depends
		// on its predecessor, deterministically from the hash.
		if j > 0 && int(h>>(8+j*2)%4) < s.cfg.DepChance4 {
			op.deps[0] = s.seq + uint64(j) - 1
		}
		ops = append(ops, op)
	}
	br := uop{
		kind:       opBranch,
		lat:        1,
		thread:     s.thread,
		isBranch:   true,
		mispredict: ev.Mispredict(),
		btbMiss:    ev.BTBMiss(),
		deps:       [2]uint64{noDep, noDep},
	}
	// A conditional branch consumes the last produced value: its
	// resolution waits for the dependency chain (load-dependent branches
	// resolve late — the fidelity the stage model adds).
	if block > 0 {
		br.deps[0] = s.seq + uint64(block) - 1
	}
	ops = append(ops, br)

	for j := range ops {
		ops[j].seq = s.seq
		s.seq++
	}
	s.pending = ops
}

// next pops one µop; ok is false when the stream is drained.
func (s *opStream) next() (uop, bool) {
	s.refill()
	if len(s.pending) == 0 {
		return uop{}, false
	}
	op := s.pending[0]
	s.pending = s.pending[1:]
	return op, true
}

// FetchPolicy selects the fetching thread each cycle in SMT mode.
type FetchPolicy int

const (
	// PolicyRoundRobin alternates threads cycle by cycle.
	PolicyRoundRobin FetchPolicy = iota
	// PolicyICount fetches for the thread with fewer in-flight µops
	// (Tullsen's ICOUNT), starving stalled threads of front-end slots.
	PolicyICount
)

// String names the policy.
func (p FetchPolicy) String() string {
	switch p {
	case PolicyRoundRobin:
		return "round-robin"
	case PolicyICount:
		return "icount"
	default:
		return fmt.Sprintf("FetchPolicy(%d)", int(p))
	}
}

// PipelineCore is the stage-driven engine.
type PipelineCore struct {
	cfg PipelineConfig
	mem *cache.Hierarchy
	bpu sim.Model

	// architectural queues
	rob   []*uop // in order; head = oldest
	iq    []*uop // unissued ops
	lq    int
	sq    int
	fetch []*uop

	streams  []*opStream
	policy   FetchPolicy
	inflight [2]int

	cycle       uint64
	icacheStall uint64 // accumulated at fetch by opStream

	// front-end blocking: a mispredicted branch stalls fetch from its
	// dispatch until resolution + redirect.
	fetchBlockedBy *uop
	fetchStallTill uint64

	// lastCommitted[t] is the newest retired sequence number of thread t
	// plus one; commit is in order, so every seq below it has completed.
	lastCommitted [2]uint64

	stats  [2]PipelineStats
	branch [2]bpu.Counters
}

// NewPipeline builds a stage-driven core around a BPU model.
func NewPipeline(cfg PipelineConfig, bpuModel sim.Model) (*PipelineCore, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &PipelineCore{
		cfg:    cfg,
		mem:    cache.TableIVHierarchy(),
		bpu:    bpuModel,
		policy: PolicyICount,
	}, nil
}

// SetFetchPolicy selects the SMT fetch policy (default ICOUNT).
func (p *PipelineCore) SetFetchPolicy(f FetchPolicy) { p.policy = f }

// Run executes one trace and returns its pipeline statistics.
func (p *PipelineCore) Run(tr *trace.Trace) PipelineStats {
	p.streams = []*opStream{{cfg: &p.cfg, core: p, trace: tr}}
	p.simulate()
	st := p.stats[0]
	st.Cycles = p.cycle
	return st
}

// BranchResult exposes the per-thread branch accounting of the last run.
func (p *PipelineCore) BranchResult(thread int) sim.Result {
	r := branchResult(p.branch[thread])
	r.Model = p.bpu.Name()
	return r
}

// RunSMT co-runs two traces; the returned stats share the Cycles field.
func (p *PipelineCore) RunSMT(a, b *trace.Trace) [2]PipelineStats {
	p.streams = []*opStream{
		{cfg: &p.cfg, core: p, trace: a, thread: 0},
		{cfg: &p.cfg, core: p, trace: b, thread: 1},
	}
	p.simulate()
	out := [2]PipelineStats{p.stats[0], p.stats[1]}
	out[0].Cycles = p.cycle
	out[1].Cycles = p.cycle
	return out
}

func (p *PipelineCore) drained() bool {
	for _, s := range p.streams {
		if !s.exhausted() {
			return false
		}
	}
	return len(p.rob) == 0 && len(p.fetch) == 0
}

// simulate runs the cycle loop: commit → writeback → issue → dispatch →
// fetch (reverse stage order so a µop moves one stage per cycle).
func (p *PipelineCore) simulate() {
	p.rob = p.rob[:0]
	p.iq = p.iq[:0]
	p.fetch = p.fetch[:0]
	p.lq, p.sq = 0, 0
	p.cycle = 0
	p.inflight = [2]int{}
	p.stats = [2]PipelineStats{}
	p.branch = [2]bpu.Counters{}
	p.fetchBlockedBy = nil
	p.fetchStallTill = 0
	p.lastCommitted = [2]uint64{}

	const safetyCap = 1 << 28 // defensive bound against scheduling bugs
	for !p.drained() {
		p.commitStage()
		p.writebackStage()
		p.issueStage()
		p.dispatchStage()
		p.fetchStage()
		p.cycle++
		if p.cycle > safetyCap {
			panic("cpu: pipeline failed to drain (scheduling deadlock)")
		}
	}
}

// commitStage retires completed µops in order, freeing LQ/SQ slots.
func (p *PipelineCore) commitStage() {
	n := 0
	for len(p.rob) > 0 && n < p.cfg.Width {
		op := p.rob[0]
		if !op.done {
			break
		}
		switch op.kind {
		case opLoad:
			p.lq--
		case opStore:
			p.sq--
		}
		p.inflight[op.thread]--
		p.stats[op.thread].Instructions++
		p.lastCommitted[op.thread] = op.seq + 1
		p.rob = p.rob[1:]
		n++
	}
}

// writebackStage completes µops whose latency elapsed; a resolving
// mispredicted branch unblocks the front end after the redirect penalty.
func (p *PipelineCore) writebackStage() {
	for _, op := range p.rob {
		if op.issued && !op.done && op.doneCycle <= p.cycle {
			op.done = true
			if op.isBranch && op == p.fetchBlockedBy {
				p.fetchBlockedBy = nil
				p.fetchStallTill = p.cycle + uint64(p.cfg.RedirectPenalty)
				p.stats[op.thread].Squashes++
				p.stats[op.thread].ResolveLatencySum += p.cycle - op.fetchCycle
			}
		}
	}
}

// ready reports whether every producer of op has completed: either
// retired (seq below the in-order commit horizon) or done in the ROB.
func (p *PipelineCore) ready(op *uop, doneBySeq map[uint64]bool) bool {
	for _, d := range op.deps {
		if d == noDep {
			continue
		}
		if d < p.lastCommitted[op.thread] {
			continue
		}
		if !doneBySeq[d<<1|uint64(op.thread)] {
			return false
		}
	}
	return true
}

// issueStage picks ready µops from the issue queue within port limits.
func (p *PipelineCore) issueStage() {
	if len(p.iq) == 0 {
		return
	}
	// Completion lookup for dependency checks.
	doneBySeq := make(map[uint64]bool, len(p.rob))
	for _, op := range p.rob {
		if op.done {
			doneBySeq[op.seq<<1|uint64(op.thread)] = true
		}
	}
	ports := map[opKind]int{
		opALU:    p.cfg.ALUPorts,
		opLoad:   p.cfg.LoadPorts,
		opStore:  p.cfg.StorePorts,
		opBranch: p.cfg.BranchPorts,
	}
	issued, kept := 0, p.iq[:0]
	for _, op := range p.iq {
		if issued >= p.cfg.Width || ports[op.kind] == 0 || !p.ready(op, doneBySeq) {
			kept = append(kept, op)
			continue
		}
		ports[op.kind]--
		issued++
		op.issued = true
		lat := op.lat
		if op.kind == opLoad {
			lat = uint64(p.mem.AccessData(op.addr))
		}
		op.doneCycle = p.cycle + lat
	}
	p.iq = kept
}

// dispatchStage moves µops from the fetch buffer into the ROB/IQ,
// stalling on any full structure.
func (p *PipelineCore) dispatchStage() {
	n := 0
	for len(p.fetch) > 0 && n < p.cfg.Width {
		op := p.fetch[0]
		if len(p.rob) >= p.cfg.ROB || len(p.iq) >= p.cfg.IQ ||
			(op.kind == opLoad && p.lq >= p.cfg.LQ) ||
			(op.kind == opStore && p.sq >= p.cfg.SQ) {
			p.stats[op.thread].DispatchStallCycles++
			return
		}
		switch op.kind {
		case opLoad:
			p.lq++
		case opStore:
			p.sq++
		}
		p.rob = append(p.rob, op)
		p.iq = append(p.iq, op)
		p.fetch = p.fetch[1:]
		n++
	}
}

// pickThread applies the SMT fetch policy.
func (p *PipelineCore) pickThread() *opStream {
	live := make([]*opStream, 0, 2)
	for _, s := range p.streams {
		if !s.exhausted() {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	if p.policy == PolicyRoundRobin {
		return live[int(p.cycle)%2]
	}
	if p.inflight[live[0].thread] <= p.inflight[live[1].thread] {
		return live[0]
	}
	return live[1]
}

// fetchStage fills the fetch buffer unless the front end is blocked by an
// unresolved misprediction, a redirect, or an icache refill.
func (p *PipelineCore) fetchStage() {
	if p.fetchBlockedBy != nil {
		p.chargeFetchStall()
		return
	}
	if p.icacheStall > 0 {
		p.icacheStall--
		p.chargeFetchStall()
		return
	}
	if p.cycle < p.fetchStallTill {
		p.chargeFetchStall()
		return
	}
	s := p.pickThread()
	if s == nil {
		return
	}
	for n := 0; n < p.cfg.Width && len(p.fetch) < p.cfg.FetchQueue; n++ {
		op, ok := s.next()
		if !ok {
			return
		}
		op.fetchCycle = p.cycle
		fetched := &op
		p.fetch = append(p.fetch, fetched)
		p.inflight[op.thread]++
		if op.isBranch {
			if op.mispredict {
				p.fetchBlockedBy = fetched
				return
			}
			if op.btbMiss {
				p.fetchStallTill = p.cycle + uint64(p.cfg.BTBMissPenalty)
				return
			}
		}
	}
}

// chargeFetchStall attributes a blocked front-end cycle to the thread
// that owns the blockage (thread 0 when indeterminate).
func (p *PipelineCore) chargeFetchStall() {
	th := 0
	if p.fetchBlockedBy != nil {
		th = p.fetchBlockedBy.thread
	}
	p.stats[th].FetchStallCycles++
}
