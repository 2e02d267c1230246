// Package spill publishes the persistent tiers' files — tracestore's
// STBT traces and snapstore's .snap checkpoints — atomically and
// durably, and names them from a filename-safe alphabet.
package spill

import (
	"io"
	"os"
	"path/filepath"
	"strings"
)

// Write publishes the bytes write produces under path. They go to a temp
// file in path's directory, which is fsynced, closed and renamed over
// path; the directory is fsynced last. The rename makes the file atomic
// against concurrent readers, so processes sharing the directory never
// observe a partial file. The two fsyncs make it durable: without the
// first a crash can publish a zero-length or torn file under the final
// name, and without the second the rename itself may not survive.
//
// An error before the rename removes the temp file and leaves path
// untouched. A failed directory sync is returned too, but the renamed
// file stays: its content is durable and visible, only the rename's
// durability is in doubt.
func Write(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".spill-*")
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Sanitize maps a workload name onto the alphabet spill file names use:
// letters, digits, '.', '_' and '-', with every other rune replaced by
// '_'. The output holds no glob metacharacters, so it is safe to embed in
// a filepath.Glob pattern.
func Sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, name)
}
