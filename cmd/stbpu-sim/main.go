// Command stbpu-sim is the trace-driven BPU simulator CLI (§VII-B1): it
// generates (or loads) a workload trace, replays it through a protection
// model, and prints prediction-accuracy statistics.
//
// Usage:
//
//	stbpu-sim -workload 505.mcf -model STBPU -records 200000
//	stbpu-sim -list
//	stbpu-sim -workload mysql_128con_50s -model all
//	stbpu-sim -workload 502.gcc -save gcc.stbt      # write the trace
//	stbpu-sim -load gcc.stbt -model baseline        # replay a saved trace
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	"stbpu/internal/core"
	"stbpu/internal/defenses"
	"stbpu/internal/sim"
	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "stbpu-sim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workload = flag.String("workload", "505.mcf", "workload preset name")
		model    = flag.String("model", "STBPU", "model: baseline|ucode1|ucode2|conservative|STBPU|all,\n"+
			"a §VIII defense (BRB|BSUP|zhao|exynos), STBPU+ittage, or everything")
		records = flag.Int("records", 200_000, "trace length in branch records")
		list    = flag.Bool("list", false, "list workload presets and exit")
		save    = flag.String("save", "", "write the generated trace to this file (STBT format)")
		load    = flag.String("load", "", "replay a saved STBT trace instead of generating one")
		seed    = flag.Uint64("seed", 7, "token PRNG seed")
	)
	flag.Parse()

	if *list {
		for _, n := range trace.PresetNames() {
			fmt.Println(n)
		}
		return nil
	}

	var tr *trace.Trace
	var prof trace.Profile
	if *load != "" {
		var err error
		if tr, prof, err = loadTrace(*load, os.Stderr); err != nil {
			return err
		}
	} else {
		p, err := trace.Preset(*workload)
		if err != nil {
			return err
		}
		prof = p.WithRecords(*records)
		tr, err = trace.Generate(prof)
		if err != nil {
			return err
		}
	}

	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return err
		}
		if err := trace.Write(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", len(tr.Records), *save)
	}

	st := tr.ComputeStats()
	fmt.Printf("trace %s: %d records, %d processes, %d ctx switches, %d mode switches\n",
		tr.Name, st.Total, st.Processes, st.ContextSwitches, st.ModeSwitches)

	models, err := pickModels(*model, prof.SharedTokens, *seed)
	if err != nil {
		return err
	}
	// Ctrl-C aborts the replay loop mid-trace instead of killing the
	// process between prints.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmt.Printf("%-22s %8s %8s %8s %10s %8s %8s\n",
		"model", "OAE", "dir", "target", "evictions", "flushes", "rerand")
	for _, m := range models {
		res, err := sim.RunCtx(ctx, m, tr)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %8.4f %8.4f %8.4f %10d %8d %8d\n",
			res.Model, res.OAE(), res.DirectionRate(), res.TargetRate(),
			res.Evictions, res.Flushes, res.Rerandomizations)
	}
	return nil
}

// loadTrace reads a saved STBT trace. The file carries no profile, so
// it is re-derived from the trace's name, as the trace tier does for
// its spills, and a shared-token workload keeps its token policy: a
// preset, or a built-in spec workload (stbpu-trace synth -spec saves
// those under their spec names). A name that neither owns keeps the
// zero profile, and loadTrace says so on warn.
func loadTrace(path string, warn io.Writer) (*trace.Trace, trace.Profile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, trace.Profile{}, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, trace.Profile{}, err
	}
	spec.RegisterBuiltin()
	prof, err := tracestore.PresetProfile(tr.Name, len(tr.Records))
	if err != nil {
		fmt.Fprintf(warn, "stbpu-sim: %s: no preset or built-in spec workload is named %q; replaying with the zero profile (per-process tokens)\n", path, tr.Name)
	}
	return tr, prof, nil
}

// pickModels resolves a model selector into ready instances. "all" covers
// the Fig. 3 lineup; "everything" adds the §VIII defenses and the
// ITTAGE-backed STBPU.
func pickModels(name string, sharedTokens bool, seed uint64) ([]sim.Model, error) {
	simKinds := map[string]sim.ModelKind{
		"baseline": sim.KindBaseline, "ucode1": sim.KindUcode1,
		"ucode2": sim.KindUcode2, "conservative": sim.KindConservative,
		"stbpu": sim.KindSTBPU,
	}
	defKinds := map[string]defenses.Kind{
		"brb": defenses.KindBRB, "bsup": defenses.KindBSUP,
		"zhao": defenses.KindZhao, "exynos": defenses.KindExynos,
	}
	opts := sim.Options{SharedTokens: sharedTokens, Seed: seed}
	ittageModel := func() sim.Model {
		return core.NewModel(core.ModelConfig{
			Dir: core.DirSKLCond, SharedTokens: sharedTokens, Seed: seed,
			IndirectITTAGE: true,
		})
	}

	lower := strings.ToLower(name)
	switch lower {
	case "all":
		var ms []sim.Model
		for _, k := range sim.Fig3Kinds() {
			ms = append(ms, sim.New(k, opts))
		}
		return ms, nil
	case "everything":
		var ms []sim.Model
		for _, k := range sim.Fig3Kinds() {
			ms = append(ms, sim.New(k, opts))
		}
		for _, k := range defenses.Kinds() {
			ms = append(ms, defenses.New(k, defenses.Options{Seed: seed}))
		}
		return append(ms, ittageModel()), nil
	case "stbpu+ittage":
		return []sim.Model{ittageModel()}, nil
	}
	if k, ok := simKinds[lower]; ok {
		return []sim.Model{sim.New(k, opts)}, nil
	}
	if k, ok := defKinds[lower]; ok {
		return []sim.Model{defenses.New(k, defenses.Options{Seed: seed})}, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}
