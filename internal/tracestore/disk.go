// The persistent disk tier: generated traces spill as STBT files and
// later runs (and exec workers) decode them back into columns instead
// of regenerating, turning per-process generation cost into a one-time
// cost per machine. See doc.go for the package overview.

package tracestore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"stbpu/internal/spill"
	"stbpu/internal/trace"
)

// SetDir enables the persistent trace tier rooted at dir (creating it
// if needed); an empty dir disables the tier. With a tier configured,
// a cache miss first tries to decode a spilled STBT file for the key,
// and a generated trace is spilled (atomic temp-file-plus-rename, so
// concurrent processes sharing the directory never observe a partial
// file) before being admitted. Disk problems never fail a lookup: an
// unreadable, corrupt, or mismatched spill counts a DiskError and
// falls back to generation, overwriting the bad file.
//
// The tier is only valid for the default PresetGenColumns/PresetProfile
// pipeline: files are keyed by (name, records) alone, so a store with
// a custom GenFunc could neither trust another process's spills nor
// produce spills safe for default stores sharing the directory —
// SetDir refuses rather than risk serving one generator's bytes as
// another's. Call before the first GetColumns.
func (s *Store) SetDir(dir string) error {
	if dir != "" {
		if !s.presetGen {
			return errors.New("tracestore: the disk tier requires the default preset generator (spills are keyed by (name, records) only)")
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
	return nil
}

func (s *Store) diskDir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
}

// diskPath names the spill file for a key: the sanitized workload name
// (collision-proofed with an FNV tag of the raw name) plus the record
// count, so a directory listing stays human-readable and one directory
// can hold every trace length of every workload.
func (s *Store) diskPath(k Key) string {
	h := fnv.New32a()
	h.Write([]byte(k.Name))
	return filepath.Join(s.diskDir(), fmt.Sprintf("%s-%08x@%d.stbt", spill.Sanitize(k.Name), h.Sum32(), k.Records))
}

// loadDisk tries to satisfy a miss from the spill file, decoding
// straight into columns (no intermediate []Record). A decoded trace
// that does not match the key (wrong name or length: a stale or
// foreign file) or that fails structural validation (bit rot that
// survives varint framing — a flipped flag or address bit) is treated
// as corrupt: without the check, a damaged spill would silently break
// the determinism contract for every run sharing the directory. The
// caller counts the hit — a decoded spill it cannot use (no derivable
// profile) is a miss.
func (s *Store) loadDisk(k Key) (*trace.Columns, bool) {
	f, err := os.Open(s.diskPath(k))
	if err != nil {
		s.mu.Lock()
		if os.IsNotExist(err) {
			s.diskMisses++
		} else {
			s.diskErrors++
		}
		s.mu.Unlock()
		return nil, false
	}
	defer f.Close()
	cols, err := trace.ReadColumns(f)
	if err != nil || cols.Name != k.Name || cols.Len() != k.Records || cols.Validate() != nil {
		s.mu.Lock()
		s.diskErrors++
		s.mu.Unlock()
		return nil, false
	}
	return cols, true
}

// spill writes the columns to the tier atomically and durably
// (spill.Write). Failures are best-effort by design — the trace is
// already resident, so a full disk or read-only directory costs only the
// persistence, not the run.
func (s *Store) spill(k Key, cols *trace.Columns) {
	// Mapped mode spills the page-aligned v2 layout so the next run can
	// mmap it; otherwise the compact v1 delta stream (~3-4x smaller).
	// Readers accept both, so mixed-mode runs sharing a directory
	// interoperate in either direction.
	write := trace.WriteColumns
	if s.isMapped() && mmapSupported {
		write = trace.WriteColumnsMapped
	}
	if err := spill.Write(s.diskPath(k), func(w io.Writer) error { return write(w, cols) }); err != nil {
		s.noteDiskError()
		return
	}
	s.mu.Lock()
	s.diskWrites++
	s.mu.Unlock()
}

func (s *Store) noteDiskError() {
	s.mu.Lock()
	s.diskErrors++
	s.mu.Unlock()
}
