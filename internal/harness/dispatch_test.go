package harness

// Tests for the fleet's dispatch unit, localityChunks: each locality
// group whole, unlabeled cells cut by size.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// cyclingSpecs labels n cells with keys in turn, shard by shard, so no
// key's cells are contiguous.
func cyclingSpecs(n int, keys ...string) []CellSpec {
	specs := make([]CellSpec, n)
	for i := range specs {
		specs[i] = CellSpec{Scope: "dispatch", Shard: i, Locality: keys[i%len(keys)]}
	}
	return specs
}

// chunkLayout renders each chunk as "key:shard,shard,...".
func chunkLayout(chunks [][]CellSpec) []string {
	out := make([]string, len(chunks))
	for i, c := range chunks {
		shards := make([]string, len(c))
		for j, s := range c {
			shards[j] = fmt.Sprint(s.Shard)
		}
		out[i] = c[0].Locality + ":" + strings.Join(shards, ",")
	}
	return out
}

// TestLocalityChunksExecKeepsGroupsWhole: every labeled group is exactly
// one chunk, groups come out in the order their keys first appear, and
// no chunk mixes keys — at any worker count.
func TestLocalityChunksExecKeepsGroupsWhole(t *testing.T) {
	keys := []string{Locality("mcf", 10), PairLocality("mcf", "xz", 10), Locality("leela", 10)}
	specs := cyclingSpecs(30, keys...)
	for _, workers := range []int{1, 2, 8} {
		chunks := localityChunks(specs, workers)
		if len(chunks) != len(keys) {
			t.Fatalf("workers=%d: %d chunks, want one per key (%d): %v", workers, len(chunks), len(keys), chunkLayout(chunks))
		}
		for i, c := range chunks {
			if len(c) != 10 {
				t.Errorf("workers=%d: chunk %d holds %d cells, want the whole group of 10", workers, i, len(c))
			}
			for _, s := range c {
				if s.Locality != keys[i] {
					t.Errorf("workers=%d: chunk %d holds %q cell %d, want only %q", workers, i, s.Locality, s.Shard, keys[i])
				}
			}
		}
	}
}

// TestLocalityChunksUnlabeledCutBySize: unlabeled batches (covert,
// defense-matrix, Table I) are cut into contiguous chunks of
// ceil(n / (workers*4)) cells.
func TestLocalityChunksUnlabeledCutBySize(t *testing.T) {
	for _, n := range []int{1, 5, 8, 13, 64, 100} {
		for _, workers := range []int{1, 2, 3} {
			specs := cyclingSpecs(n, "")
			size := max(1, (n+workers*4-1)/(workers*4))
			var want [][]CellSpec
			for off := 0; off < n; off += size {
				want = append(want, specs[off:min(off+size, n)])
			}
			if got := localityChunks(specs, workers); !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d workers=%d: %v, want %v", n, workers, chunkLayout(got), chunkLayout(want))
			}
		}
	}
}
