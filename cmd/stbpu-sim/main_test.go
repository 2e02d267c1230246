package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"stbpu/internal/sim"
	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
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
// the profile it was generated with: a shared-token server preset and
// the built-in burst spec workload (saved under its spec name, as
// stbpu-trace synth -spec saves it) keep SharedTokens, so STBPU keys
// its tokens the same way on both paths, and nothing is printed.
func TestLoadTraceKeepsProfile(t *testing.T) {
	apache, apacheProf := genTrace(t, "apache2_prefork_c128", 2_000)
	var burst *spec.Spec
	for _, s := range spec.Builtin() {
		if s.Name == "burst" {
			burst = s
		}
	}
	if burst == nil {
		t.Fatal("no built-in burst spec")
	}
	burstTrace, err := burst.Generate(2_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tr   *trace.Trace
		want trace.Profile
	}{
		{apache, apacheProf},
		{burstTrace, burst.Profile(2_000)},
	} {
		if !c.want.SharedTokens {
			t.Fatalf("%s does not share tokens; pick a workload that does", c.want.Name)
		}
		var warn bytes.Buffer
		loaded, prof, err := loadTrace(saveTrace(t, c.tr), &warn)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded.Records) != len(c.tr.Records) {
			t.Fatalf("loaded %d records, saved %d", len(loaded.Records), len(c.tr.Records))
		}
		if prof != c.want {
			t.Errorf("loaded profile %q (%d records, SharedTokens %t), want the generating profile %q (%d records, SharedTokens %t)",
				prof.Name, prof.Records, prof.SharedTokens, c.want.Name, c.want.Records, c.want.SharedTokens)
		}
		if warn.Len() != 0 {
			t.Errorf("%s: loading a known workload printed %q", c.want.Name, warn.String())
		}
	}
}

// TestLoadTraceUnknownNameKeepsZeroProfile pins the fallback: a trace
// whose name no workload owns loads with the zero profile, and says so
// in one line.
func TestLoadTraceUnknownNameKeepsZeroProfile(t *testing.T) {
	tr, _ := genTrace(t, "505.mcf", 500)
	tr.Name = "not-a-preset"
	var warn bytes.Buffer
	loaded, prof, err := loadTrace(saveTrace(t, tr), &warn)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Name != "not-a-preset" || prof != (trace.Profile{}) {
		t.Errorf("loaded %q with profile %+v, want the zero profile", loaded.Name, prof)
	}
	if got := warn.String(); strings.Count(got, "\n") != 1 || !strings.Contains(got, `"not-a-preset"`) {
		t.Errorf("warning %q, want one line naming the trace", got)
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
