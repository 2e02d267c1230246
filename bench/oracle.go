package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// Top-level suite-document fields that record timing, placement or cache
// bookkeeping rather than results. The output check ignores them.
var volatileDocFields = []string{"elapsed_ms", "workers", "backends", "trace_store", "snap_store"}

// Per-report fields ignored for the same reason: wall time, and the pool
// size the measured and oracle invocations legitimately differ in.
var volatileRunFields = []string{"elapsed_ms", "workers"}

// normalize strips a suite document down to what must not change
// between runs of one seed: everything except the volatile fields, with
// every other runs[] field kept byte for byte (compacted). Keys come out
// sorted, so equal content gives equal bytes.
func normalize(doc []byte) ([]byte, error) {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(doc, &top); err != nil {
		return nil, fmt.Errorf("suite document: %w", err)
	}
	for _, k := range volatileDocFields {
		delete(top, k)
	}
	var runs []map[string]json.RawMessage
	if err := json.Unmarshal(top["runs"], &runs); err != nil {
		return nil, fmt.Errorf("suite document runs: %w", err)
	}
	for _, r := range runs {
		for _, k := range volatileRunFields {
			delete(r, k)
		}
	}
	rb, err := json.Marshal(runs)
	if err != nil {
		return nil, err
	}
	top["runs"] = rb
	return json.Marshal(top)
}

// digest is the hex SHA-256 of the normalized document.
func digest(doc []byte) (string, error) {
	n, err := normalize(doc)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(n)
	return hex.EncodeToString(sum[:]), nil
}

// refSeeds have committed reference digests: stbpu-suite's default root
// seed and one seed held out from every tuning run.
var refSeeds = []uint64{0x57b9c0ffee, 0xd5a22}

// refsFile maps a decimal seed to each workload's reference digest.
//
//go:embed testdata/refs.json
var refsFile []byte

type refTable map[string]map[string]string

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsFile, &t); err != nil {
		return nil, fmt.Errorf("testdata/refs.json: %w", err)
	}
	return t, nil
}

// ref returns the committed digest for (seed, workload), if any.
func (t refTable) ref(seed uint64, name string) (string, bool) {
	d, ok := t[strconv.FormatUint(seed, 10)][name]
	return d, ok
}

// writeRefs records new reference digests in the source tree, for when a
// change to the suite's results is intended.
func writeRefs(root string, t refTable) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "bench", "testdata", "refs.json"), append(b, '\n'), 0o644)
}
