package trace

import (
	"fmt"
	"sort"
)

// This file instantiates one generator profile per paper workload.
//
// Fig. 3 evaluates 23 SPEC CPU 2017 traces plus 12 user/server application
// traces (Apache2 prefork at five concurrency levels, four Chrome browser
// scenarios, four MySQL connection counts, OBS Studio). Figs. 4-6 use 18
// SPEC workloads (plus povray in one SMT pair) in gem5.
//
// The knob values encode each workload's published predictability class:
// branch-heavy integer codes with hard-to-predict control flow (mcf,
// deepsjeng, leela, xz, exchange2) get large hard/correlated fractions;
// regular FP codes (lbm, bwaves, namd, fotonik3d, ...) are near-perfectly
// biased; interpreter/compiler codes (perlbench, gcc, xalancbmk, omnetpp,
// povray) get high indirect-branch fractions and big static footprints.
// Server and interactive workloads add many processes, dense context
// switches and syscall activity, which is what separates the flushing
// protections from STBPU in Fig. 3.

// predictClass buckets SPEC workloads by branch behaviour.
type predictClass int

const (
	classEasy     predictClass = iota // highly biased FP loops
	classMedium                       // mixed integer/FP
	classHard                         // pointer-chasing / search codes
	classIndirect                     // interpreter/compiler heavy indirect use
)

// defaultSPECRecords is the dynamic branch budget per synthetic SPEC trace.
// Experiments scale this with Profile.WithRecords.
const defaultSPECRecords = 400_000

// defaultServerRecords is the budget for server/interactive traces.
const defaultServerRecords = 400_000

func specProfile(name string, class predictClass) Profile {
	p := Profile{
		Name:    name,
		Records: defaultSPECRecords,
		// PT captures run on a live core: the SPEC process shares it
		// with a light background process, timer ticks, and occasional
		// syscalls — the kernel activity the paper's traces include.
		Processes:       2,
		CtxSwitchMean:   12_000,
		SyscallMean:     700,
		KernelBurstMean: 35,
		KernelConds:     1024,
		CallDepthMax:    14,
		LoopPeriodMax:   24,
		ZipfSkew:        1.1,
		RegionExp:       2.2,
		RegionLenMean:   10,
		RegionTripsMean: 12,

		CondFrac:     0.72,
		JumpFrac:     0.08,
		CallFrac:     0.07,
		IndirectFrac: 0.03,

		IndirectTargetsMax: 4,
		IndirectPhaseMean:  8_000,
	}
	switch class {
	case classEasy:
		p.StaticConds = 384
		p.StaticIndirects = 8
		p.StaticCallees = 48
		p.StaticJumps = 48
		p.HardFrac = 0.01
		p.PatternFrac = 0.15
		p.CorrelatedFrac = 0.06
		p.BiasTakenProb = 0.98
	case classMedium:
		p.StaticConds = 2048
		p.StaticIndirects = 48
		p.StaticCallees = 160
		p.StaticJumps = 160
		p.HardFrac = 0.06
		p.PatternFrac = 0.18
		p.CorrelatedFrac = 0.25
		p.BiasTakenProb = 0.92
		p.RegionLenMean = 12
		p.RegionTripsMean = 7
	case classHard:
		p.StaticConds = 3072
		p.StaticIndirects = 32
		p.StaticCallees = 128
		p.StaticJumps = 128
		p.HardFrac = 0.15
		p.PatternFrac = 0.08
		p.CorrelatedFrac = 0.35
		p.BiasTakenProb = 0.85
		p.RegionLenMean = 12
		p.RegionTripsMean = 6
	case classIndirect:
		p.StaticConds = 4096
		p.StaticIndirects = 192
		p.StaticCallees = 320
		p.StaticJumps = 256
		p.HardFrac = 0.08
		p.PatternFrac = 0.12
		p.CorrelatedFrac = 0.28
		p.BiasTakenProb = 0.90
		p.IndirectFrac = 0.08
		p.IndirectTargetsMax = 10
		p.CondFrac = 0.64
		p.RegionLenMean = 14
		p.RegionTripsMean = 5
	}
	return p
}

func serverProfile(name string, processes, ctxSwitch, syscall, burst int, conns int) Profile {
	p := Profile{
		Name:            name,
		Records:         defaultServerRecords,
		Processes:       processes,
		SameProgram:     true,
		SharedTokens:    true,
		CtxSwitchMean:   ctxSwitch,
		SyscallMean:     syscall,
		KernelBurstMean: burst,
		KernelConds:     1536,
		CallDepthMax:    14,
		LoopPeriodMax:   16,
		ZipfSkew:        1.05,
		RegionExp:       1.15,
		RegionLenMean:   18,
		RegionTripsMean: 3,

		StaticConds:     2816 + conns*2,
		StaticIndirects: 96,
		StaticCallees:   256,
		StaticJumps:     192,
		HardFrac:        0.07,
		PatternFrac:     0.10,
		CorrelatedFrac:  0.22,
		BiasTakenProb:   0.91,

		CondFrac:     0.66,
		JumpFrac:     0.08,
		CallFrac:     0.09,
		IndirectFrac: 0.06,

		IndirectTargetsMax: 8,
		IndirectPhaseMean:  4_000,
	}
	return p
}

func interactiveProfile(name string, processes int, shared bool) Profile {
	p := serverProfile(name, processes, 900, 450, 45, 64)
	p.SharedTokens = shared
	p.SameProgram = true // one binary, many renderer/worker processes
	p.StaticConds = 3072
	p.StaticIndirects = 224
	p.IndirectFrac = 0.08
	p.CondFrac = 0.62
	p.IndirectTargetsMax = 12
	p.HardFrac = 0.09
	p.CorrelatedFrac = 0.24
	return p
}

// specClasses maps the 23 Fig.-3 SPEC workloads to behaviour classes.
var specClasses = map[string]predictClass{
	"500.perlbench": classIndirect,
	"502.gcc":       classIndirect,
	"503.bwaves":    classEasy,
	"505.mcf":       classHard,
	"507.cactuBSSN": classEasy,
	"508.namd":      classEasy,
	"510.parest":    classMedium,
	"511.povray":    classMedium,
	"519.lbm":       classEasy,
	"520.omnetpp":   classIndirect,
	"521.wrf":       classEasy,
	"523.xalancbmk": classIndirect,
	"525.x264":      classMedium,
	"526.blender":   classMedium,
	"527.cam4":      classEasy,
	"531.deepsjeng": classHard,
	"538.imagick":   classEasy,
	"541.leela":     classHard,
	"544.nab":       classEasy,
	"548.exchange2": classHard,
	"549.fotonik3d": classEasy,
	"554.roms":      classEasy,
	"557.xz":        classHard,
}

// shortSPEC maps the gem5 evaluation's short names (Figs. 4-6) to the full
// SPEC workload identifiers.
var shortSPEC = map[string]string{
	"fotonik3d": "549.fotonik3d",
	"x264":      "525.x264",
	"exchange2": "548.exchange2",
	"deepsjeng": "531.deepsjeng",
	"roms":      "554.roms",
	"mcf":       "505.mcf",
	"nab":       "544.nab",
	"cam4":      "527.cam4",
	"namd":      "508.namd",
	"xalancbmk": "523.xalancbmk",
	"parest":    "510.parest",
	"bwaves":    "503.bwaves",
	"wrf":       "521.wrf",
	"imagick":   "538.imagick",
	"leela":     "541.leela",
	"blender":   "526.blender",
	"xz":        "557.xz",
	"lbm":       "519.lbm",
	"povray":    "511.povray",
	"cactuBSSN": "507.cactuBSSN",
}

// buildPresets constructs the full preset table once at init.
func buildPresets() map[string]Profile {
	m := make(map[string]Profile)
	for name, class := range specClasses {
		m[name] = specProfile(name, class)
	}
	// Apache2 prefork: worker count grows with the concurrency setting;
	// more workers mean denser context switching and more kernel time.
	apache := []struct {
		name  string
		procs int
		ctx   int
		conns int
	}{
		{"apache2_prefork_c32", 6, 1_300, 32},
		{"apache2_prefork_c64", 8, 1_000, 64},
		{"apache2_prefork_c128", 10, 750, 128},
		{"apache2_prefork_c256", 12, 550, 256},
		{"apache2_prefork_c512", 16, 400, 512},
	}
	for _, a := range apache {
		m[a.name] = serverProfile(a.name, a.procs, a.ctx, 300, 50, a.conns)
	}
	// MySQL: thread-per-connection server, shared binary, heavy syscalls.
	mysql := []struct {
		name  string
		procs int
		ctx   int
	}{
		{"mysql_32con_50s", 6, 1_400},
		{"mysql_64con_50s", 8, 1_000},
		{"mysql_128con_50s", 10, 700},
		{"mysql_256con_50s", 12, 500},
	}
	for _, q := range mysql {
		p := serverProfile(q.name, q.procs, q.ctx, 280, 60, 128)
		p.StaticConds = 3072
		m[q.name] = p
	}
	// Chrome: multi-process browser, JS-heavy scenarios are indirect-
	// branch rich. Single-site scenarios run one program's renderers, so
	// the OS shares one token per program (§IV-A); the mixed-site run
	// (1je_1mo_1sp) keeps per-renderer isolation, showing the cost of
	// forgoing sharing.
	m["chrome-1jetstream"] = interactiveProfile("chrome-1jetstream", 5, true)
	m["chrome-1motionmark"] = interactiveProfile("chrome-1motionmark", 4, true)
	m["chrome-1speedometer"] = interactiveProfile("chrome-1speedometer", 5, true)
	m["chrome-1je_1mo_1sp"] = interactiveProfile("chrome-1je_1mo_1sp", 8, false)
	// OBS Studio: single process, moderate syscall rate (capture/encode).
	obs := specProfile("obsstudio_30s", classMedium)
	obs.Name = "obsstudio_30s"
	obs.Processes = 3
	obs.CtxSwitchMean = 2_200
	obs.SyscallMean = 800
	obs.KernelBurstMean = 40
	obs.KernelConds = 1024
	obs.RegionExp = 1.4
	m["obsstudio_30s"] = obs
	return m
}

var presets = buildPresets()

// CanonicalName resolves a gem5 short name ("mcf") to the full SPEC
// name ("505.mcf") Preset generates under; any other name is returned
// unchanged. Both names of a workload generate the same trace, so
// caches key it by this name.
func CanonicalName(name string) string {
	if full, ok := shortSPEC[name]; ok {
		return full
	}
	return name
}

// Preset returns the profile for a workload name. Both full SPEC names
// ("505.mcf") and the gem5 short names ("mcf") resolve.
func Preset(name string) (Profile, error) {
	full := CanonicalName(name)
	p, ok := presets[full]
	switch {
	case !ok && full != name:
		return Profile{}, fmt.Errorf("trace: preset %q maps to missing %q", name, full)
	case !ok:
		return Profile{}, fmt.Errorf("trace: unknown preset %q", name)
	}
	p.Name = full
	return p, nil
}

// PresetNames returns all preset names, sorted.
func PresetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Fig3Workloads returns the 35 workload names of Fig. 3 in the paper's
// x-axis order (SPEC numerically, then applications alphabetically).
func Fig3Workloads() []string {
	spec := make([]string, 0, len(specClasses))
	for n := range specClasses {
		spec = append(spec, n)
	}
	sort.Strings(spec)
	apps := []string{
		"apache2_prefork_c128", "apache2_prefork_c256", "apache2_prefork_c32",
		"apache2_prefork_c512", "apache2_prefork_c64",
		"chrome-1je_1mo_1sp", "chrome-1jetstream", "chrome-1motionmark",
		"chrome-1speedometer",
		"mysql_128con_50s", "mysql_256con_50s", "mysql_32con_50s",
		"mysql_64con_50s",
		"obsstudio_30s",
	}
	return append(spec, apps...)
}

// SPEC18 returns the 18 short-named SPEC workloads used in the single-
// workload gem5 evaluation (Fig. 4), in the paper's order.
func SPEC18() []string {
	return []string{
		"fotonik3d", "x264", "exchange2", "deepsjeng", "roms", "mcf",
		"nab", "cam4", "namd", "xalancbmk", "parest", "bwaves", "wrf",
		"imagick", "leela", "blender", "xz", "lbm",
	}
}

// SMTPairs returns the 31 SPEC workload pairs of the paper's Fig. 5 SMT
// evaluation, in figure order.
func SMTPairs() [][2]string {
	return [][2]string{
		{"bwaves", "fotonik3d"}, {"bwaves", "cactuBSSN"}, {"bwaves", "leela"},
		{"bwaves", "cam4"}, {"exchange2", "nab"}, {"bwaves", "wrf"},
		{"leela", "namd"}, {"exchange2", "mcf"}, {"bwaves", "deepsjeng"},
		{"exchange2", "fotonik3d"}, {"deepsjeng", "lbm"}, {"bwaves", "namd"},
		{"bwaves", "lbm"}, {"leela", "mcf"}, {"lbm", "xz"},
		{"fotonik3d", "mcf"}, {"lbm", "namd"}, {"lbm", "mcf"},
		{"exchange2", "leela"}, {"fotonik3d", "lbm"}, {"cam4", "mcf"},
		{"nab", "xz"}, {"exchange2", "namd"}, {"bwaves", "roms"},
		{"mcf", "xz"}, {"exchange2", "lbm"}, {"bwaves", "povray"},
		{"fotonik3d", "leela"}, {"fotonik3d", "namd"}, {"deepsjeng", "xz"},
		{"bwaves", "exchange2"},
	}
}

// SMTPairsExtended returns 42 workload pairs (the Fig. 6 sweep population):
// the Fig. 5 pairs plus additional combinations drawn from the same pool.
func SMTPairsExtended() [][2]string {
	pairs := SMTPairs()
	extra := [][2]string{
		{"x264", "mcf"}, {"x264", "leela"}, {"roms", "deepsjeng"},
		{"wrf", "xz"}, {"imagick", "mcf"}, {"parest", "deepsjeng"},
		{"xalancbmk", "lbm"}, {"blender", "mcf"}, {"nab", "leela"},
		{"cam4", "xz"}, {"namd", "deepsjeng"},
	}
	return append(pairs, extra...)
}
