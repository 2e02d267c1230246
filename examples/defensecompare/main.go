// Defensecompare runs the §VIII related-work head-to-head: the published
// alternative secure-BPU designs (BRB, BSUP, Zhao-DAC21, Exynos-XOR)
// against the unprotected baseline and STBPU, on both axes at once —
// prediction accuracy over mixed workloads, and the outcome of every
// collision-attack class in Table I. The paper argues this comparison
// qualitatively; this example regenerates it as measurements.
package main

import (
	"context"
	"fmt"
	"os"

	_ "stbpu/internal/experiments" // registers the scenarios
	"stbpu/internal/harness"
)

func main() {
	reports, err := harness.RunAll(context.Background(), harness.NewPool(0, harness.DefaultRootSeed), harness.Options{
		Filters: []string{"defense-accuracy", "defense-matrix"},
		Params:  harness.Params{Records: 60_000},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "defensecompare: %v\n", err)
		os.Exit(1)
	}
	// Reports come in name order: defense-accuracy, then defense-matrix.
	headers := []string{
		"=== Accuracy: normalized OAE over switch-heavy + SPEC workloads ===",
		"\n=== Security: attack classes vs defenses (OPEN = exploitable) ===",
	}
	for i, rep := range reports {
		fmt.Println(headers[i])
		rep.Result.(harness.Renderer).Render(os.Stdout)
	}

	fmt.Println("\nReading the matrix:")
	fmt.Println("  BRB retains the PHT per process but leaves the BTB shared -> target attacks open.")
	fmt.Println("  BSUP keys all structures but re-keys on a timer, not on attack events,")
	fmt.Println("       and one key register per core forfeits SMT isolation.")
	fmt.Println("  Zhao's XOR masks are linear: same-address-space aliases survive masking.")
	fmt.Println("  Exynos encrypts only indirect targets -> every PHT channel stays open.")
	fmt.Println("  STBPU combines keyed remapping, target encryption, and event-driven")
	fmt.Println("       re-randomization: every class is stopped at equal accuracy cost.")
}
