package spill

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// TestWritePublishesAndReplaces: a write publishes the bytes under the
// final name, a second write replaces them, and no temp file survives.
func TestWritePublishesAndReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.snap")
	for _, want := range []string{"first", "second"} {
		if err := Write(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("after writing %q the file holds %q (%v)", want, got, err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want only the published file", len(entries), err)
	}
}

// TestWriteFailureLeavesOldFile: a writer that fails partway publishes
// nothing — the old file keeps its bytes and the temp file is removed.
func TestWriteFailureLeavesOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.stbt")
	if err := Write(path, writeString("intact")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write err = %v, want the writer's error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "intact" {
		t.Errorf("failed write disturbed the published file: %q (%v)", got, err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want the temp file removed", len(entries), err)
	}
}

func TestSanitize(t *testing.T) {
	for in, want := range map[string]string{
		"505.mcf":          "505.mcf",
		"mysql_128con_50s": "mysql_128con_50s",
		"spec:a/b*[c]?":    "spec_a_b__c__",
		"héllo":            "h_llo",
	} {
		if got := Sanitize(in); got != want {
			t.Errorf("Sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestQueueRunsJobsInOrder: the background writer runs jobs one at a
// time in the order they were queued, from any number of queueing
// goroutines' points of view, and starts again after it drains.
func TestQueueRunsJobsInOrder(t *testing.T) {
	for round := 0; round < 3; round++ {
		var ran []int
		done := make(chan struct{})
		for i := 0; i < 200; i++ {
			i := i
			Queue(func() { ran = append(ran, i) })
		}
		Queue(func() { close(done) })
		<-done
		if len(ran) != 200 {
			t.Fatalf("round %d: %d of 200 jobs ran", round, len(ran))
		}
		for i, got := range ran {
			if got != i {
				t.Fatalf("round %d: job %d ran in position %d", round, got, i)
			}
		}
	}
}
