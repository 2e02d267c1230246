package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
)

// journalCellRuns counts real executions of the _journal scenario's
// cells, so tests can assert which cells a resumed run skipped.
var journalCellRuns atomic.Int64

const journalScenarioCells = 8

func init() {
	registerSpace("_journal", "journal test scenario", Params{Trials: journalScenarioCells},
		func(p Params, _ *Pool) (Space[struct{}, float64], error) {
			return Cells("_journal", p.Trials, func(ctx context.Context, shard int, seed uint64) (float64, error) {
				journalCellRuns.Add(1)
				return float64(seed%997) / 7, nil
			}), nil
		})
}

func runJournalScenario(t *testing.T, sink Sink) []Report {
	t.Helper()
	pool := NewPool(2, 11)
	if sink != nil {
		pool.SetSink(sink)
		defer pool.SetSink(nil)
	}
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_journal"}})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

func TestJournalStreamsEveryCell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	runJournalScenario(t, j)
	if j.Appended() != journalScenarioCells {
		t.Errorf("appended %d cells, want %d", j.Appended(), journalScenarioCells)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != journalScenarioCells {
		t.Fatalf("journal holds %d entries, want %d", len(entries), journalScenarioCells)
	}
	e := entries[0]
	if e.Scenario != "_journal" || e.Scope != "_journal" || e.RootSeed != 11 || e.Params.Trials != journalScenarioCells {
		t.Errorf("entry address wrong: %+v", e)
	}
	if len(e.Value) == 0 || e.Backend != "local" {
		t.Errorf("entry payload wrong: %+v", e)
	}
}

// TestJournalResumeSkipsCompletedCells is the resume acceptance gate: a
// journal holding a prefix of the run's cells must keep those cells
// from re-executing while the final results and cell accounting stay
// identical to an uninterrupted run.
func TestJournalResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	j, err := CreateJournal(full)
	if err != nil {
		t.Fatal(err)
	}
	wantReports := runJournalScenario(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a run killed partway: keep only the first half of the
	// journal's lines.
	b, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimRight(string(b), "\n"), "\n")
	partialPath := filepath.Join(dir, "partial.jsonl")
	partial := strings.Join(lines[:journalScenarioCells/2], "")
	if err := os.WriteFile(partialPath, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}

	rj, err := ResumeJournal(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Loaded() != journalScenarioCells/2 {
		t.Fatalf("resumed journal loaded %d cells, want %d", rj.Loaded(), journalScenarioCells/2)
	}
	before := journalCellRuns.Load()
	gotReports := runJournalScenario(t, rj)
	executed := journalCellRuns.Load() - before
	if want := int64(journalScenarioCells / 2); executed != want {
		t.Errorf("resumed run executed %d cells, want %d", executed, want)
	}
	if gotReports[0].Cells != journalScenarioCells {
		t.Errorf("resumed run counted %d cells, want %d (restored cells must count)", gotReports[0].Cells, journalScenarioCells)
	}
	if !reflect.DeepEqual(gotReports[0].Result, wantReports[0].Result) {
		t.Errorf("resumed result differs:\n%v\n%v", gotReports[0].Result, wantReports[0].Result)
	}
	if gotReports[0].Cells != wantReports[0].Cells {
		t.Errorf("resumed Report.Cells = %d, want %d", gotReports[0].Cells, wantReports[0].Cells)
	}
	if err := rj.Close(); err != nil {
		t.Fatal(err)
	}
	// The resumed journal must now be complete: original prefix plus the
	// freshly executed cells, no duplicates.
	entries, err := ReadJournal(partialPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != journalScenarioCells {
		t.Errorf("resumed journal holds %d entries, want %d", len(entries), journalScenarioCells)
	}
}

// TestJournalObserverSeesRestoredCells pins the replay contract: a
// resumed run streams journal-restored cells to the observer with
// Backend "journal", so progress accounting covers the whole space.
func TestJournalObserverSeesRestoredCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	runJournalScenario(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	rj, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	pool := NewPool(2, 11)
	pool.SetSink(rj)
	var restored atomic.Int64
	pool.SetObserver(func(c Cell) {
		if c.Backend == "journal" {
			restored.Add(1)
		}
	})
	if _, err := RunAll(context.Background(), pool, Options{Filters: []string{"_journal"}}); err != nil {
		t.Fatal(err)
	}
	if restored.Load() != journalScenarioCells {
		t.Errorf("observer saw %d restored cells, want %d", restored.Load(), journalScenarioCells)
	}
}

// TestJournalToleratesTruncatedTail is the crash-tail contract: a run
// killed mid-write leaves a partial final line, which Resume/Read drop.
func TestJournalToleratesTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	runJournalScenario(t, j)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"scenario":"_journal","scope":"_jou`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("truncated tail not tolerated: %v", err)
	}
	if len(entries) != journalScenarioCells {
		t.Errorf("entries = %d, want %d", len(entries), journalScenarioCells)
	}
	rj, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if rj.Loaded() != journalScenarioCells {
		t.Errorf("resume loaded %d, want %d", rj.Loaded(), journalScenarioCells)
	}
	// The resume must have truncated the partial tail before appending:
	// a cell written now starts on its own line, and the whole file
	// stays parseable (the bug this pins: appending after a dropped
	// tail welded the next entry onto garbage mid-file, poisoning every
	// later read).
	rj.CellDone(Cell{Backend: "local"},
		CellSpec{Scenario: "_journal", Scope: "extra", Shard: 0, RootSeed: 11},
		CellResult{Shard: 0, Value: json.RawMessage("42")})
	if err := rj.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err = ReadJournal(path)
	if err != nil {
		t.Fatalf("journal unreadable after resume over a truncated tail: %v", err)
	}
	if len(entries) != journalScenarioCells+1 {
		t.Errorf("entries after post-resume append = %d, want %d", len(entries), journalScenarioCells+1)
	}
	if last := entries[len(entries)-1]; last.Scope != "extra" || string(last.Value) != "42" {
		t.Errorf("post-resume entry corrupted: %+v", last)
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	good, err := json.Marshal(JournalEntry{Scenario: "s", Scope: "s", Value: json.RawMessage("1")})
	if err != nil {
		t.Fatal(err)
	}
	content := "not json at all\n" + string(good) + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil {
		t.Error("mid-file corruption was silently accepted")
	}
}

func TestJournalSkipsErrorsAndAnonymousCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := CellSpec{Scenario: "s", Scope: "sc", Shard: 0, RootSeed: 1}
	j.CellDone(Cell{Err: errors.New("boom")}, spec, CellResult{Shard: 0, Err: "boom"})
	j.CellDone(Cell{}, CellSpec{Scope: "anon", Shard: 1}, CellResult{Shard: 1, Value: json.RawMessage("2")})
	// Cells mapped without a scenario reach the sink anonymous too.
	pool := NewPool(1, 1)
	pool.SetSink(j)
	if _, err := mapCells(context.Background(), pool, "", Params{}, Cells("anon", 2,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return shard, nil })); err != nil {
		t.Fatal(err)
	}
	if j.Appended() != 0 {
		t.Errorf("errored/anonymous cells were journaled: %d", j.Appended())
	}
	if j.Err() != nil {
		t.Errorf("a failed cell must not poison the journal: %v", j.Err())
	}
	j.CellDone(Cell{Backend: "local"}, spec, CellResult{Shard: 0, Value: json.RawMessage("1")})
	j.CellDone(Cell{Backend: "local"}, spec, CellResult{Shard: 0, Value: json.RawMessage("1")})
	if j.Appended() != 1 {
		t.Errorf("duplicate cell not deduplicated: %d", j.Appended())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalSurfacesUnencodableCells: a cell that *succeeded* but
// could not be wire-encoded (NaN in its value) leaves a hole a resume
// would silently re-execute — the journal must fail loudly at Close.
func TestJournalSurfacesUnencodableCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	res := CellResult{Shard: 0, value: math.NaN(), hasValue: true}
	res.encodeWire() // what Pool.complete does; NaN makes this fail
	j.CellDone(Cell{Backend: "local"}, CellSpec{Scenario: "s", Scope: "sc"}, res)
	if err := j.Close(); err == nil || !strings.Contains(err.Error(), "not journalable") {
		t.Errorf("unencodable successful cell not surfaced: %v", err)
	}
}

// TestJournalKeyedByParams pins the address: a journal recorded under
// one parameter set must not satisfy lookups for another. Lookups only
// answer for resume-loaded cells (freshly appended cells index
// presence alone, keeping million-cell runs from retaining every value
// in memory), so the check goes through a close/resume cycle.
func TestJournalKeyedByParams(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := CellSpec{Scenario: "s", Scope: "sc", Shard: 0, RootSeed: 1, Params: Params{Records: 100}}
	j.CellDone(Cell{}, spec, CellResult{Shard: 0, Value: json.RawMessage("1")})
	if _, ok := j.LookupCell(spec); ok {
		t.Error("freshly appended cell answered a lookup (values must not be retained in memory)")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	rj, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	if r, ok := rj.LookupCell(spec); !ok || string(r.Value) != "1" {
		t.Fatalf("resume-loaded cell not found: %+v, %v", r, ok)
	}
	// A hit releases the stored value (splice-once memory contract); the
	// key stays indexed so re-appends still dedup.
	if _, ok := rj.LookupCell(spec); ok {
		t.Error("second lookup of a spliced cell still held its value")
	}
	rj.CellDone(Cell{}, spec, CellResult{Shard: 0, Value: json.RawMessage("1")})
	if rj.Appended() != 0 {
		t.Error("spliced cell was re-appended after its value was released")
	}
	other := spec
	other.Params.Records = 200
	if _, ok := rj.LookupCell(other); ok {
		t.Error("lookup matched across different params")
	}
	otherSeed := spec
	otherSeed.RootSeed = 2
	if _, ok := rj.LookupCell(otherSeed); ok {
		t.Error("lookup matched across different root seeds")
	}
}

// TestJournalResumeMissingFileIsEmpty pins the degenerate resume: no
// journal yet means nothing to skip, not an error.
func TestJournalResumeMissingFileIsEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent.jsonl")
	j, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Loaded() != 0 {
		t.Errorf("loaded %d from a missing file", j.Loaded())
	}
	runJournalScenario(t, j)
	if j.Appended() != journalScenarioCells {
		t.Errorf("appended %d, want %d", j.Appended(), journalScenarioCells)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestJournalCloseSurfacesWriteFailure: a journal whose file stopped
// accepting writes must fail the run at Close, not lose cells silently.
func TestJournalCloseSurfacesWriteFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.f.Close() // simulate the descriptor dying under the journal
	j.CellDone(Cell{}, CellSpec{Scenario: "s", Scope: "sc"}, CellResult{Value: json.RawMessage("1")})
	if j.Err() == nil {
		t.Fatal("write failure not recorded")
	}
	// After a sticky failure no further entries may be written or
	// indexed — a later successful write after a partial one would weld
	// garbage mid-file and make the whole journal unresumable.
	j.CellDone(Cell{}, CellSpec{Scenario: "s", Scope: "sc", Shard: 1}, CellResult{Shard: 1, Value: json.RawMessage("2")})
	if j.Appended() != 0 {
		t.Errorf("journal kept appending after a write failure: %d", j.Appended())
	}
	j.f = nil // already closed above; Close must still report the write error
	if err := j.Close(); err == nil {
		t.Error("Close swallowed the write failure")
	}
}

// TestJournalExecBackendStreams: cells executed by subprocess workers
// must reach the coordinator's journal exactly like local cells.
func TestJournalExecBackendStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(2, 11)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	pool.SetSink(j)
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_journal"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != journalScenarioCells {
		t.Fatalf("exec run journaled %d cells, want %d", len(entries), journalScenarioCells)
	}
	for _, e := range entries {
		if e.Backend != "exec" {
			t.Errorf("entry backend = %q, want exec", e.Backend)
		}
	}
	// A fresh pool resuming from the exec run's journal must reproduce
	// the same result without executing anything.
	rj, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rj.Close()
	before := journalCellRuns.Load()
	resumed := runJournalScenario(t, rj)
	if executed := journalCellRuns.Load() - before; executed != 0 {
		t.Errorf("resume after a complete exec run executed %d cells", executed)
	}
	a, _ := json.Marshal(reports[0].Result)
	b, _ := json.Marshal(resumed[0].Result)
	if string(a) != string(b) {
		t.Errorf("journal-restored result differs from exec run:\n%s\n%s", a, b)
	}
}

// FuzzResumeJournal feeds ResumeJournal — which loads a file a killed
// run may have left half-written — arbitrary bytes. It must never
// panic. On error the file must be untouched byte for byte. On success
// the file must be a prefix of the input ending on a line boundary (so
// appends start a fresh line), ReadJournal must parse it back to the
// entries the input held, and the journal must have loaded each
// distinct cell among them once.
func FuzzResumeJournal(f *testing.F) {
	line := func(scope string, shard int) string {
		b, err := json.Marshal(JournalEntry{Scenario: "_journal", Scope: scope, Shard: shard, RootSeed: 11, Value: json.RawMessage("1.5")})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	valid := line("a", 0) + line("a", 1) + line("b", 0)
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"scenario":"_journal","scope":"_jou`))
	f.Add([]byte(line("a", 0) + "not json at all\n" + line("a", 1)))
	f.Add([]byte("\n" + line("a", 0) + "\n\n" + line("a", 0) + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "run.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, readErr := ReadJournal(path)
		j, err := ResumeJournal(path)
		got, ferr := os.ReadFile(path)
		if ferr != nil {
			t.Fatal(ferr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("failed resume (%v) changed the file:\n got %q\nwant %q", err, got, data)
			}
			return
		}
		defer j.Close()
		if readErr != nil {
			t.Fatalf("ResumeJournal accepted a journal ReadJournal rejects: %v", readErr)
		}
		if !bytes.HasPrefix(data, got) {
			t.Fatalf("resumed file %q is not a prefix of the input %q", got, data)
		}
		if len(got) > 0 && got[len(got)-1] != '\n' {
			t.Fatalf("resumed file %q ends mid-line", got)
		}
		entries, err := ReadJournal(path)
		if err != nil {
			t.Fatalf("ReadJournal after resume: %v", err)
		}
		if !reflect.DeepEqual(entries, want) {
			t.Fatalf("resumed file parses to %+v, the input to %+v", entries, want)
		}
		cells := map[journalKey]bool{}
		for _, e := range entries {
			k, err := specJournalKey(CellSpec{Scenario: e.Scenario, Params: e.Params, Scope: e.Scope, Shard: e.Shard, RootSeed: e.RootSeed})
			if err != nil {
				t.Fatal(err)
			}
			cells[k] = true
		}
		if j.Loaded() != len(cells) {
			t.Fatalf("journal loaded %d cells, the file holds %d distinct", j.Loaded(), len(cells))
		}
	})
}
