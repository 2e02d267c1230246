package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"stbpu/internal/harness"
	"stbpu/internal/results"
)

// runAllTiny executes every registered scenario at a deliberately tiny
// scale — the tables pipeline cares about shapes, not physics.
func runAllTiny(t *testing.T) []harness.Report {
	t.Helper()
	pool := harness.NewPool(4, 1)
	reports, err := harness.RunAll(context.Background(), pool, harness.Options{
		Params: harness.Params{Records: 8000, MaxWorkloads: 2, MaxPairs: 2, Trials: 2, Bits: 32, Budget: 200},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestEveryScenarioResultIsTabler is the pipeline coverage gate: every
// registered scenario's aggregate must flatten into a results.Table,
// and the typed decoder must reproduce that table and its rendered text
// from the aggregate's JSON — the exact paths stbpu-report takes
// through a suite document.
func TestEveryScenarioResultIsTabler(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every scenario")
	}
	reports := runAllTiny(t)
	if len(reports) < 12 {
		t.Fatalf("only %d scenarios ran", len(reports))
	}
	for _, rep := range reports {
		if strings.HasPrefix(rep.Scenario, "_") {
			continue // test-only scenarios registered by other files
		}
		tb, ok := rep.Result.(results.Tabler)
		if !ok {
			t.Errorf("scenario %s result %T does not implement results.Tabler", rep.Scenario, rep.Result)
			continue
		}
		direct := tb.Table().WithScenario(rep.Scenario)
		if len(direct.Rows) == 0 {
			t.Errorf("scenario %s flattened to an empty table", rep.Scenario)
			continue
		}
		raw, err := json.Marshal(rep.Result)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeResult(rep.Scenario, raw)
		if err != nil {
			t.Errorf("DecodeResult(%s): %v", rep.Scenario, err)
			continue
		}
		viaWire := decoded.Table().WithScenario(rep.Scenario)
		if !reflect.DeepEqual(direct, viaWire) {
			t.Errorf("scenario %s: table differs between live aggregate and JSON round-trip", rep.Scenario)
		}
		// stbpu-report prints a document's runs through the decoded
		// Render, so its text must be the live aggregate's byte for byte.
		var live, viaDoc bytes.Buffer
		rep.Result.(harness.Renderer).Render(&live)
		decoded.Render(&viaDoc)
		if !bytes.Equal(live.Bytes(), viaDoc.Bytes()) {
			t.Errorf("scenario %s: Render differs between live aggregate and JSON round-trip:\n%s\nvs\n%s",
				rep.Scenario, live.String(), viaDoc.String())
		}
		// A table diffed against itself must be clean — the invariant the
		// stbpu-report self-diff smoke leans on.
		d := results.Diff(direct, viaWire)
		if len(d.Changed()) != 0 || len(d.OnlyOld) != 0 || len(d.OnlyNew) != 0 {
			t.Errorf("scenario %s: self-diff not clean", rep.Scenario)
		}
		// Row keys must be unique: duplicate keys would silently shadow
		// each other in diffs.
		seen := map[string]bool{}
		for _, row := range direct.Rows {
			if seen[row.Key()] {
				t.Errorf("scenario %s: duplicate table key %q", rep.Scenario, strings.ReplaceAll(row.Key(), "\x00", "|"))
				break
			}
			seen[row.Key()] = true
		}
	}
}

func TestDecodeResultUnknownScenario(t *testing.T) {
	if _, err := DecodeResult("no-such-scenario", json.RawMessage("{}")); err == nil {
		t.Error("unknown scenario decoded without error")
	}
}
