// The persistent disk tier: checkpoints spill as checksummed .snap
// files, so later runs (and exec workers sharing the directory) restore
// warm predictor state instead of replaying the prefix. The format is a
// magic header, the payload length, an FNV-64a digest, and the payload;
// the digest turns any torn or bit-rotted spill into a counted miss
// instead of corrupt state handed to a decoder.

package snapstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"stbpu/internal/spill"
)

// SetDir enables the persistent checkpoint tier rooted at dir (creating
// it if needed); an empty dir disables the tier. Spills go through
// spill.Write like the trace tier's, so they are atomic and durable —
// concurrent processes sharing the directory never observe a partial
// file, and a crash cannot publish a torn one — and a put whose bytes
// are already on disk writes nothing.
func (s *Store) SetDir(dir string) error {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	s.mu.Lock()
	s.dir = dir
	s.mu.Unlock()
	return nil
}

// snapMagic heads every spill file.
var snapMagic = []byte("STBS1\n")

// diskPath names the spill file for a key: the sanitized workload name
// for human readability, an FNV tag over the full (model, workload) pair
// for collision-proofing, and the records+offset coordinates.
func (s *Store) diskPath(k Key) string {
	h := fnv.New64a()
	h.Write([]byte(k.Model))
	h.Write([]byte{0})
	h.Write([]byte(k.Workload))
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	return filepath.Join(dir, fmt.Sprintf("%s-%016x@%d+%d.snap", spill.Sanitize(k.Workload), h.Sum64(), k.Records, k.Offset))
}

// prefetchBudgetBytes bounds how much spill data one Prefetch pulls
// into the page cache.
const prefetchBudgetBytes = 256 << 20

// Prefetch warms the disk tier for a workload's checkpoints in the
// background — the dispatch-time hint path. Full Keys cannot be
// reconstructed at dispatch time (they embed the model fingerprint the
// coordinator does not track), so prefetch works at the file level:
// every spill whose name carries the workload is read once and
// discarded, leaving the bytes hot in the OS page cache for the
// loadDisk that follows. Advisory: errors are swallowed and state is
// untouched, so results can never depend on it.
func (s *Store) Prefetch(workload string) {
	s.mu.Lock()
	dir := s.dir
	s.mu.Unlock()
	if dir == "" {
		return
	}
	go func() {
		matches, err := filepath.Glob(filepath.Join(dir, spill.Sanitize(workload)+"-*.snap"))
		if err != nil {
			return
		}
		var total int64
		for _, m := range matches {
			st, err := os.Stat(m)
			if err != nil {
				continue
			}
			if total += st.Size(); total > prefetchBudgetBytes {
				return
			}
			_, _ = os.ReadFile(m)
		}
	}()
}

// loadDisk tries to satisfy a miss from a spill file. A missing file is
// a disk miss; a short, oversized, or checksum-failing file is a disk
// error — both read as a plain miss to the caller, which falls back to
// replay (and a subsequent Put overwrites the bad file).
func (s *Store) loadDisk(k Key) ([]byte, bool) {
	raw, err := os.ReadFile(s.diskPath(k))
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
	n := len(snapMagic) + 16
	if len(raw) < n || !bytes.Equal(raw[:n], spillHeader(raw[n:])) {
		s.noteDiskError()
		return nil, false
	}
	s.mu.Lock()
	s.diskHits++
	s.mu.Unlock()
	return raw[n:], true
}

// spill writes the checkpoint to the tier atomically and durably
// (spill.Write), unless the spill file already holds exactly these
// bytes. Checkpoints are a pure function of their key, so a warm run
// re-putting every boundary would otherwise replace each file with an
// identical copy, and renaming over an existing name is the slow case of
// rename(2). The whole file is compared, not just the header, so payload
// rot under an intact header is still rewritten and healed. Failures are
// best-effort: the snapshot is already resident, so a full disk costs
// only the persistence, not the run.
func (s *Store) spill(k Key, data []byte) {
	header := spillHeader(data)
	path := s.diskPath(k)
	if holds(path, header, data) {
		return
	}
	if err := spill.Write(path, func(w io.Writer) error {
		if _, err := w.Write(header); err != nil {
			return err
		}
		_, err := w.Write(data)
		return err
	}); err != nil {
		s.noteDiskError()
		return
	}
	s.mu.Lock()
	s.diskWrites++
	s.mu.Unlock()
}

// spillHeader is the header a spill of data carries: the magic, the
// payload length, and the payload's FNV-64a digest.
func spillHeader(data []byte) []byte {
	sum := fnv.New64a()
	sum.Write(data)
	header := append([]byte(nil), snapMagic...)
	header = binary.LittleEndian.AppendUint64(header, uint64(len(data)))
	return binary.LittleEndian.AppendUint64(header, sum.Sum64())
}

// holds reports whether the file at path is exactly header followed by
// data. Any read problem reports false and sends the caller down the
// write path.
func holds(path string, header, data []byte) bool {
	raw, err := os.ReadFile(path)
	return err == nil && len(raw) == len(header)+len(data) &&
		bytes.Equal(raw[:len(header)], header) && bytes.Equal(raw[len(header):], data)
}

func (s *Store) noteDiskError() {
	s.mu.Lock()
	s.diskErrors++
	s.mu.Unlock()
}
