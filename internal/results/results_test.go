package results

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestSortIsDeterministic(t *testing.T) {
	var a, b Table
	a.Add("w=2", "m", 1)
	a.Add("w=1", "m", 2)
	a.Add("w=1", "a", 3)
	b.Add("w=1", "a", 3)
	b.Add("w=2", "m", 1)
	b.Add("w=1", "m", 2)
	a.Sort()
	b.Sort()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sorted tables differ:\n%+v\n%+v", a, b)
	}
	if a.Rows[0].Metric != "a" || a.Rows[1].Cell != "w=1" || a.Rows[2].Cell != "w=2" {
		t.Errorf("canonical order broken: %+v", a.Rows)
	}
}

func TestWithScenarioStampsAndSorts(t *testing.T) {
	var tb Table
	tb.Add("b", "m", 1)
	tb.Add("a", "m", 2)
	got := tb.WithScenario("fig3")
	for _, r := range got.Rows {
		if r.Scenario != "fig3" {
			t.Errorf("row not stamped: %+v", r)
		}
	}
	if got.Rows[0].Cell != "a" {
		t.Errorf("WithScenario did not sort: %+v", got.Rows)
	}
	if tb.Rows[0].Cell != "b" {
		t.Error("WithScenario mutated its receiver")
	}
}

func TestLabels(t *testing.T) {
	if got := Labels("workload", "505.mcf", "model", "STBPU"); got != "workload=505.mcf,model=STBPU" {
		t.Errorf("Labels = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("odd Labels call did not panic")
		}
	}()
	Labels("only-key")
}

func TestDiffMatchesAndPartitions(t *testing.T) {
	var old, new Table
	old.Add("w=1", "oae", 0.5)
	old.Add("w=1", "gone", 9)
	old.Add("w=2", "oae", 0.25)
	new.Add("w=1", "oae", 0.6)
	new.Add("w=2", "oae", 0.25)
	new.Add("w=3", "fresh", 1)

	d := Diff(old, new)
	if len(d.Deltas) != 2 || len(d.OnlyOld) != 1 || len(d.OnlyNew) != 1 {
		t.Fatalf("partition = %d deltas, %d only-old, %d only-new", len(d.Deltas), len(d.OnlyOld), len(d.OnlyNew))
	}
	if d.OnlyOld[0].Metric != "gone" || d.OnlyNew[0].Metric != "fresh" {
		t.Errorf("one-sided rows wrong: %+v %+v", d.OnlyOld, d.OnlyNew)
	}
	first := d.Deltas[0]
	if first.Old != 0.5 || first.New != 0.6 || math.Abs(first.Rel-0.2) > 1e-12 {
		t.Errorf("delta = %+v", first)
	}
	if ch := d.Changed(); len(ch) != 1 || ch[0].Row.Cell != "w=1" {
		t.Errorf("Changed = %+v", ch)
	}
}

func TestDiffZeroBaselineIsInfiniteRel(t *testing.T) {
	var old, new Table
	old.Add("c", "m", 0)
	new.Add("c", "m", 0.001)
	d := Diff(old, new)
	if !math.IsInf(d.Deltas[0].Rel, 1) {
		t.Errorf("Rel = %v, want +Inf", d.Deltas[0].Rel)
	}
	// Any finite threshold must flag a metric leaving zero.
	if v := d.Violations(1e9); len(v) != 1 {
		t.Errorf("zero-baseline change not flagged: %+v", v)
	}
}

func TestViolationsThreshold(t *testing.T) {
	var old, new Table
	old.Add("a", "m", 1.0)
	old.Add("b", "m", 1.0)
	new.Add("a", "m", 1.04)
	new.Add("b", "m", 1.10)
	d := Diff(old, new)
	if v := d.Violations(0.05); len(v) != 1 || v[0].Row.Cell != "b" {
		t.Errorf("Violations(0.05) = %+v", v)
	}
	if v := d.Violations(0); len(v) != 2 {
		t.Errorf("strict gate missed changes: %+v", v)
	}
}

func TestDiffIdenticalTablesIsClean(t *testing.T) {
	var tb Table
	tb.Add("w=1", "oae", 0.5)
	tb.Add("w=2", "oae", 0.25)
	d := Diff(tb, tb)
	if len(d.Changed()) != 0 || len(d.OnlyOld) != 0 || len(d.OnlyNew) != 0 {
		t.Errorf("self-diff not clean: %+v", d)
	}
}

func TestGridRowMatchesFprintfLayout(t *testing.T) {
	var sb strings.Builder
	Grid{LabelWidth: 10}.Row(&sb, "r", Cells("%-10s", "accuracy", "norm-IPC")...)
	want := "r          accuracy   norm-IPC  \n"
	if sb.String() != want {
		t.Errorf("Row = %q, want %q", sb.String(), want)
	}
	sb.Reset()
	Grid{LabelWidth: 4, Sep: " | "}.Write(&sb, [][]string{{"a", "x"}, {"bb", "y", "z"}})
	if got := sb.String(); got != "a    | x\nbb   | y | z\n" {
		t.Errorf("Write = %q", got)
	}
}
