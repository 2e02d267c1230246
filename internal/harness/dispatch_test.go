package harness

// Tests for the wire coordinators' dispatch unit: localityChunks (one
// grouping routine; exec keeps groups whole, remote cuts them by size),
// pair keys, and the worker-side prefetch that expands them.

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stbpu/internal/trace"
	"stbpu/internal/tracestore"
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

// TestLocalityChunksExecKeepsGroupsWhole: without splitting, every
// labeled group is exactly one chunk, groups come out in the order their
// keys first appear, and no chunk mixes keys — at any worker count.
func TestLocalityChunksExecKeepsGroupsWhole(t *testing.T) {
	keys := []string{Locality("mcf", 10), PairLocality("mcf", "xz", 10), Locality("leela", 10)}
	specs := cyclingSpecs(30, keys...)
	for _, workers := range []int{1, 2, 8} {
		chunks := localityChunks(specs, workers, false)
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
// defense-matrix, Table I) are cut exactly as the exec coordinator cut
// every batch before groups were kept whole — contiguous chunks of
// ceil(n / (workers*4)) cells — under both policies.
func TestLocalityChunksUnlabeledCutBySize(t *testing.T) {
	for _, n := range []int{1, 5, 8, 13, 64, 100} {
		for _, workers := range []int{1, 2, 3} {
			specs := cyclingSpecs(n, "")
			size := max(1, (n+workers*4-1)/(workers*4))
			var want [][]CellSpec
			for off := 0; off < n; off += size {
				want = append(want, specs[off:min(off+size, n)])
			}
			for _, split := range []bool{false, true} {
				if got := localityChunks(specs, workers, split); !reflect.DeepEqual(got, want) {
					t.Errorf("n=%d workers=%d split=%v: %v, want %v", n, workers, split, chunkLayout(got), chunkLayout(want))
				}
			}
		}
	}
}

// TestLocalityChunksRemoteCut pins the remote fleet's chunks for a fixed
// batch: grouped by key in first-appearance order, each group cut into
// chunks of ceil(12 / (2 workers * 4)) = 2 cells.
func TestLocalityChunksRemoteCut(t *testing.T) {
	got := chunkLayout(localityChunks(cyclingSpecs(12, "x@1", "", "y@1"), 2, true))
	want := []string{"x@1:0,3", "x@1:6,9", ":1,4", ":7,10", "y@1:2,5", "y@1:8,11"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("remote chunks %v, want %v", got, want)
	}
}

// TestPairLocalityNamesBothTraces: a pair key expands to exactly the
// names of its two traces — spec names, which contain '@', included —
// and a single-trace key to its one name, each with the key's record
// count.
func TestPairLocalityNamesBothTraces(t *testing.T) {
	cases := []struct {
		a, b    string
		records int
	}{
		{"bwaves", "fotonik3d", 20_000},
		{"spec:web@0a1b", "spec:db@2c3d", 7},
		{"mcf", "mcf", 0},
	}
	for _, c := range cases {
		key := PairLocality(c.a, c.b, c.records)
		names, records := localityTraces(key)
		if want := []string{c.a, c.b}; !reflect.DeepEqual(names, want) || records != c.records {
			t.Errorf("localityTraces(%q) = %q, %d; want %q, %d", key, names, records, want, c.records)
		}
	}
	if names, records := localityTraces("505.mcf@9"); !reflect.DeepEqual(names, []string{"505.mcf"}) || records != 9 {
		t.Errorf("single-trace key expanded to %q, %d", names, records)
	}
	for _, bad := range []string{"", "mcf", "mcf+xz@x"} {
		if names, _ := localityTraces(bad); names != nil {
			t.Errorf("localityTraces(%q) = %q, want none", bad, names)
		}
	}
}

// TestPrefetchPairKeyWarmsOnlyWorkloads: prefetching a pair key warms
// both of its traces, and neither the pair's joined name nor a name
// that is no workload ever reaches the store.
func TestPrefetchPairKeyWarmsOnlyWorkloads(t *testing.T) {
	var mu sync.Mutex
	var asked []string
	store := tracestore.New(0, func(name string, records int) (*trace.Trace, trace.Profile, error) {
		mu.Lock()
		asked = append(asked, name)
		mu.Unlock()
		return tracestore.PresetGen(name, records)
	})
	env := cellEnv{store: store}
	env.prefetch([]string{
		PairLocality("505.mcf", "541.leela", 2_000),
		PairLocality("505.mcf", "no-such-workload", 2_000),
		Locality("no-such-workload", 2_000),
	})
	deadline := time.Now().Add(10 * time.Second)
	for store.Len() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("prefetch warmed %d traces, want 2", store.Len())
		}
		time.Sleep(time.Millisecond)
	}
	// Let any stray request from the same prefetch call land.
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	sort.Strings(asked)
	if want := []string{"505.mcf", "541.leela"}; !reflect.DeepEqual(asked, want) {
		t.Errorf("store asked to generate %q, want %q", asked, want)
	}
	if st := store.Stats(); st.Misses != 2 {
		t.Errorf("store saw %d misses, want 2 (one per real trace)", st.Misses)
	}
}
