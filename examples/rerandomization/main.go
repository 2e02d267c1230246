// Rerandomization sweeps the attack-difficulty factor r (Fig. 6): lower r
// means tighter Γ = r·C thresholds, more frequent secret-token
// re-randomization, stronger security margin — and, past a point, the loss
// of all branch history. The OS owns this dial (§IV-A): it can harden
// sensitive processes without touching hardware.
package main

import (
	"fmt"
	"log"

	"stbpu"
)

func main() {
	tr, err := stbpu.GenerateWorkload("531.deepsjeng", 120_000)
	if err != nil {
		log.Fatal(err)
	}

	base := stbpu.Simulate(stbpu.NewUnprotected(stbpu.TAGE64), tr)
	fmt.Printf("unprotected TAGE-SC-L 64KB on %s: OAE %.4f\n\n", tr.Name, base.OAE())
	fmt.Printf("%-10s %-14s %-14s %-10s %s\n", "r", "misp-budget", "evict-budget", "OAE", "re-randomizations")

	for _, r := range []float64{0.05, 0.01, 0.001, 0.0001, 0.00002} {
		th := stbpu.DeriveThresholds(r)
		model := stbpu.NewProtected(stbpu.Config{Predictor: stbpu.TAGE64, Thresholds: &th, Seed: 11})
		res := stbpu.Simulate(model, tr)
		fmt.Printf("%-10.0e %-14d %-14d %-10.4f %d\n",
			r, th.Mispredictions, th.Evictions, res.OAE(), res.Rerandomizations)
	}

	fmt.Println("\nThe paper's operating point r=0.05 keeps accuracy essentially free;")
	fmt.Println("even 100× tighter budgets stay above 95% of nominal (Fig. 6). Only")
	fmt.Println("re-randomizing every few hundred events ceases BPU training entirely —")
	fmt.Println("the OS-selectable extreme for highly sensitive processes.")
}
