package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stbpu/internal/sim"
	"stbpu/internal/trace"
)

// genTrace generates records of the named preset.
func genTrace(t *testing.T, name string, records int) (*trace.Trace, trace.Profile) {
	t.Helper()
	p, err := trace.Preset(name)
	if err != nil {
		t.Fatal(err)
	}
	p = p.WithRecords(records)
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// saveTrace writes tr where -save would and returns the path.
func saveTrace(t *testing.T, tr *trace.Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.stbt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadTraceKeepsProfile pins that -load replays a saved trace under
// the profile -workload generated it with: a shared-token server
// workload keeps SharedTokens, so STBPU keys its tokens the same way on
// both paths.
func TestLoadTraceKeepsProfile(t *testing.T) {
	tr, want := genTrace(t, "apache2_prefork_c128", 2_000)
	if !want.SharedTokens {
		t.Fatal("apache2_prefork_c128 does not share tokens; pick a workload that does")
	}
	loaded, prof, err := loadTrace(saveTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Records) != len(tr.Records) {
		t.Fatalf("loaded %d records, saved %d", len(loaded.Records), len(tr.Records))
	}
	if prof != want {
		t.Errorf("loaded profile %q (%d records, SharedTokens %t), want the generating profile %q (%d records, SharedTokens %t)",
			prof.Name, prof.Records, prof.SharedTokens, want.Name, want.Records, want.SharedTokens)
	}
}

// TestLoadTraceUnknownNameKeepsZeroProfile pins the fallback: a trace
// whose name no preset owns loads with the zero profile.
func TestLoadTraceUnknownNameKeepsZeroProfile(t *testing.T) {
	tr, _ := genTrace(t, "505.mcf", 500)
	tr.Name = "not-a-preset"
	loaded, prof, err := loadTrace(saveTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "not-a-preset" || prof != (trace.Profile{}) {
		t.Errorf("loaded %q with profile %+v, want the zero profile", loaded.Name, prof)
	}
}

// TestPickModels checks every -model selector: the models it builds, in
// order, and that each one replays a trace.
func TestPickModels(t *testing.T) {
	fig3 := []string{"baseline", "ucode-protection-1", "ucode-protection-2", "conservative", "ST_SKLCond"}
	defenses := []string{"BRB", "BSUP", "Zhao-DAC21", "Exynos-XOR"}
	cases := []struct {
		selector string
		want     []string
	}{
		{"baseline", []string{"baseline"}},
		{"ucode1", []string{"ucode-protection-1"}},
		{"ucode2", []string{"ucode-protection-2"}},
		{"conservative", []string{"conservative"}},
		{"STBPU", []string{"ST_SKLCond"}},
		{"BRB", []string{"BRB"}},
		{"BSUP", []string{"BSUP"}},
		{"zhao", []string{"Zhao-DAC21"}},
		{"exynos", []string{"Exynos-XOR"}},
		{"all", fig3},
		{"everything", append(append(append([]string{}, fig3...), defenses...), "ST_SKLCond+ITTAGE")},
		{"stbpu+ittage", []string{"ST_SKLCond+ITTAGE"}},
	}
	tr, prof := genTrace(t, "mysql_128con_50s", 2_000)
	for _, c := range cases {
		t.Run(c.selector, func(t *testing.T) {
			models, err := pickModels(c.selector, prof.SharedTokens, 7)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, m := range models {
				names = append(names, m.Name())
			}
			if !reflect.DeepEqual(names, c.want) {
				t.Fatalf("models %q, want %q", names, c.want)
			}
			for _, m := range models {
				if res := sim.Run(m, tr); res.Model != m.Name() || res.Records != len(tr.Records) {
					t.Errorf("%s replayed %d records as %q, want %d", m.Name(), res.Records, res.Model, len(tr.Records))
				}
			}
		})
	}
	if _, err := pickModels("no-such-model", false, 7); err == nil {
		t.Error("an unknown selector built models")
	}
}
