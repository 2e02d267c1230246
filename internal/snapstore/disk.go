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
// spill.Write like the trace tier's, on the same background writer, so
// they are atomic and durable — concurrent processes sharing the
// directory never observe a partial file, and a crash cannot publish a
// torn one — and a put whose bytes are already on disk writes nothing.
// A spill is on disk once Wait returns.
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

// Dir reports the persistent tier's root ("" when the tier is off).
func (s *Store) Dir() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dir
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
	return filepath.Join(s.Dir(), fmt.Sprintf("%s-%016x@%d+%d.snap", spill.Sanitize(k.Workload), h.Sum64(), k.Records, k.Offset))
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

// spill queues the checkpoint for the tier on the background writer
// (spill.Queue), which writes it atomically and durably (spill.Write)
// unless the spill file already holds exactly these bytes. Checkpoints
// are a pure function of their key, so a warm run re-putting every
// boundary would otherwise replace each file with an identical copy,
// and renaming over an existing name is the slow case of rename(2). The
// whole file is compared, not just the header, so payload rot under an
// intact header is still rewritten and healed. The writer runs spills
// in queue order, so a second Put of a key compares against the first
// one's file. Failures are best-effort: the snapshot is already
// resident, so a full disk costs only the persistence, not the run.
func (s *Store) spill(k Key, data []byte) {
	path := s.diskPath(k)
	done := make(chan struct{})
	s.mu.Lock()
	s.spilling[k] = done
	s.mu.Unlock()
	spill.Queue(func() {
		defer func() {
			s.mu.Lock()
			if s.spilling[k] == done {
				delete(s.spilling, k)
			}
			s.mu.Unlock()
			close(done)
		}()
		header := spillHeader(data)
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
	})
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
