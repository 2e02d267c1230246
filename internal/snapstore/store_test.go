package snapstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func key(model string, off int) Key {
	return Key{Model: model, Workload: "wl", Records: 10_000, Offset: off}
}

func TestGetPutRoundTrip(t *testing.T) {
	s := New(1 << 20)
	if _, ok := s.Get(key("m", 100)); ok {
		t.Fatal("empty store returned a hit")
	}
	data := []byte("predictor state")
	s.Put(key("m", 100), data)
	got, ok := s.Get(key("m", 100))
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// The key is exact: a different offset, records total, workload, or
	// model fingerprint must all miss.
	for _, k := range []Key{
		key("m", 101),
		{Model: "m", Workload: "wl", Records: 20_000, Offset: 100},
		{Model: "m", Workload: "other", Records: 10_000, Offset: 100},
		key("other", 100),
	} {
		if _, ok := s.Get(k); ok {
			t.Errorf("key %+v unexpectedly hit", k)
		}
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 5 || st.Puts != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUEvictionRespectsByteBudget(t *testing.T) {
	const payload = 1000
	budget := int64(3 * (payload + entryOverheadBytes))
	s := New(budget)
	for i := 0; i < 10; i++ {
		s.Put(key("m", i), make([]byte, payload))
	}
	if n := s.Len(); n != 3 {
		t.Fatalf("resident entries = %d, want 3", n)
	}
	if st := s.Stats(); st.Bytes > budget || st.Evictions != 7 {
		t.Fatalf("stats = %+v (budget %d)", st, budget)
	}
	// LRU order: the latest three survive, and touching one protects it
	// from the next eviction round.
	if _, ok := s.Get(key("m", 7)); !ok {
		t.Fatal("entry 7 should be resident")
	}
	s.Put(key("m", 10), make([]byte, payload))
	s.Put(key("m", 11), make([]byte, payload))
	if _, ok := s.Get(key("m", 7)); !ok {
		t.Error("recently touched entry evicted before colder ones")
	}
	if _, ok := s.Get(key("m", 8)); ok {
		t.Error("cold entry survived past the budget")
	}
}

func TestPutReplaceRefreshes(t *testing.T) {
	s := New(1 << 20)
	s.Put(key("m", 0), make([]byte, 100))
	s.Put(key("m", 0), make([]byte, 300))
	if n := s.Len(); n != 1 {
		t.Fatalf("replace grew the store to %d entries", n)
	}
	want := int64(300 + entryOverheadBytes)
	if st := s.Stats(); st.Bytes != want {
		t.Errorf("bytes = %d after replace, want %d", st.Bytes, want)
	}
}

func TestDiskTierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := New(1 << 20)
	if err := a.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	data := []byte("warm state bytes")
	a.Put(key("m", 500), data)
	if st := a.Stats(); st.DiskWrites != 1 {
		t.Fatalf("spill not recorded: %+v", st)
	}

	// A second store sharing the directory (another process in real
	// life) restores the checkpoint from disk and promotes it.
	b := New(1 << 20)
	if err := b.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	got, ok := b.Get(key("m", 500))
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("disk-tier Get = %q, %v", got, ok)
	}
	if st := b.Stats(); st.DiskHits != 1 || st.Misses != 1 {
		t.Fatalf("disk hit not counted: %+v", st)
	}
	// Promoted: the next Get is a memory hit.
	if _, ok := b.Get(key("m", 500)); !ok {
		t.Fatal("promoted entry missing")
	}
	if st := b.Stats(); st.Hits != 1 {
		t.Fatalf("promotion not effective: %+v", st)
	}
	if _, ok := b.Get(key("m", 501)); ok {
		t.Fatal("absent key hit")
	}
	if st := b.Stats(); st.DiskMisses != 1 {
		t.Fatalf("disk miss not counted: %+v", st)
	}
}

func TestDiskTierRejectsCorruptSpills(t *testing.T) {
	dir := t.TempDir()
	s := New(1 << 20)
	if err := s.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	s.Put(key("m", 7), []byte("good bytes"))
	names, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(names) != 1 {
		t.Fatalf("spill files = %v (%v)", names, err)
	}
	raw, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}

	corruptions := map[string][]byte{
		"empty":        {},
		"short-header": raw[:len(snapMagic)+3],
		"bad-magic":    append([]byte("NOTIT\n"), raw[len(snapMagic):]...),
		"flipped-payload": func() []byte {
			c := append([]byte(nil), raw...)
			c[len(c)-1] ^= 0xff
			return c
		}(),
		// Header intact, payload one byte short: only a whole-file
		// comparison tells it from the spill a put would write.
		"truncated-payload": raw[:len(raw)-1],
		"bad-length": func() []byte {
			c := append([]byte(nil), raw...)
			binary.LittleEndian.PutUint64(c[len(snapMagic):], 1<<40)
			return c
		}(),
	}
	for name, bad := range corruptions {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(names[0], bad, 0o644); err != nil {
				t.Fatal(err)
			}
			fresh := New(1 << 20)
			if err := fresh.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if _, ok := fresh.Get(key("m", 7)); ok {
				t.Fatal("corrupt spill served as a hit")
			}
			if st := fresh.Stats(); st.DiskErrors != 1 {
				t.Errorf("corruption not counted as disk error: %+v", st)
			}
			// A subsequent Put overwrites the bad file and heals the tier.
			fresh.Put(key("m", 7), []byte("good bytes"))
			if st := fresh.Stats(); st.DiskWrites != 1 {
				t.Errorf("corrupt spill not rewritten: %+v", st)
			}
			again := New(1 << 20)
			if err := again.SetDir(dir); err != nil {
				t.Fatal(err)
			}
			if got, ok := again.Get(key("m", 7)); !ok || string(got) != "good bytes" {
				t.Fatalf("healed spill unreadable: %q, %v", got, ok)
			}
			if st := again.Stats(); st.DiskHits != 1 {
				t.Errorf("healed spill not served from disk: %+v", st)
			}
		})
	}
}

// TestPutOntoIdenticalSpillWritesNothing pins the write-if-changed rule:
// a put whose bytes are already on disk — a warm run re-putting a
// checkpoint an earlier process spilled — leaves the file alone, while a
// different payload under the same key still replaces it.
func TestPutOntoIdenticalSpillWritesNothing(t *testing.T) {
	dir := t.TempDir()
	primer := New(1 << 20)
	if err := primer.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte("warm state "), 20_000)
	primer.Put(key("m", 3), data)
	path := primer.diskPath(key("m", 3))
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	warm := New(1 << 20)
	if err := warm.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	warm.Put(key("m", 3), append([]byte(nil), data...))
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) {
		t.Error("identical put replaced the spill file")
	}
	if st := warm.Stats(); st.Puts != 1 || st.DiskWrites != 0 || st.DiskErrors != 0 {
		t.Errorf("identical put stats = %+v, want 1 put and no disk write", st)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Errorf("directory holds %d entries (%v), want only the spill", len(entries), err)
	}

	changed := append([]byte(nil), data...)
	changed[len(changed)/2] ^= 1
	warm.Put(key("m", 3), changed)
	if st := warm.Stats(); st.DiskWrites != 1 {
		t.Errorf("changed payload not rewritten: %+v", st)
	}
	reader := New(1 << 20)
	if err := reader.SetDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, ok := reader.Get(key("m", 3)); !ok || !bytes.Equal(got, changed) {
		t.Error("rewritten spill does not hold the new payload")
	}
}

// TestEvictionUnderConcurrentForks drives a deliberately tiny store
// from many goroutines that checkpoint and restore overlapping keys —
// the shape of a trace-major group restoring models while the LRU churns.
// Run under -race this pins the locking discipline; in any mode it pins
// that concurrent eviction never serves torn or foreign bytes.
func TestEvictionUnderConcurrentForks(t *testing.T) {
	const payload = 512
	s := New(4 * (payload + entryOverheadBytes))
	stamp := func(model string, off, gen int) []byte {
		data := make([]byte, payload)
		copy(data, fmt.Sprintf("%s@%d#%d", model, off, gen))
		return data
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			model := fmt.Sprintf("model-%d", w%4)
			for gen := 0; gen < 200; gen++ {
				off := (w*37 + gen*13) % 9
				// Fills are deterministic per key: generation is not part
				// of the payload check below, only (model, offset) is.
				s.Put(key(model, off), stamp(model, off, 0))
				if data, ok := s.Get(key(model, off%7)); ok {
					wantPrefix := fmt.Sprintf("%s@%d#", model, off%7)
					if !bytes.HasPrefix(data, []byte(wantPrefix)) {
						t.Errorf("Get(%s,%d) returned foreign bytes %q", model, off%7, data[:32])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Evictions == 0 {
		t.Errorf("tiny store never evicted: %+v", st)
	}
}

// FuzzSnapSpill feeds arbitrary bytes to the spill loader as one key's
// file. A fresh store's Get must never panic, and it hits exactly when
// the file is spillHeader(p) followed by p, returning p. Anything else
// is a miss counted as one disk error, and a following Put leaves the
// file holding the new spill.
func FuzzSnapSpill(f *testing.F) {
	payload := []byte("warm predictor state")
	valid := append(spillHeader(payload), payload...)
	flip := func(i int) []byte {
		c := bytes.Clone(valid)
		c[i] ^= 0x01
		return c
	}
	f.Add(valid)
	f.Add(valid[:len(snapMagic)+5]) // truncated header
	f.Add(flip(len(snapMagic) + 8)) // flipped digest byte
	f.Add(flip(len(snapMagic)))     // wrong length
	f.Add([]byte{})                 // empty file
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		k := key("m", 7)
		seed := New(0)
		if err := seed.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		path := seed.diskPath(k)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		s := New(0)
		if err := s.SetDir(dir); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Get(k)
		n := len(snapMagic) + 16
		wellFormed := len(raw) >= n && bytes.Equal(raw[:n], spillHeader(raw[n:]))
		st := s.Stats()
		switch {
		case ok != wellFormed:
			t.Fatalf("hit = %v for a file that is well-formed = %v", ok, wellFormed)
		case ok && !bytes.Equal(got, raw[n:]):
			t.Fatalf("hit returned %q, want the spill's payload %q", got, raw[n:])
		case ok && (st.DiskHits != 1 || st.DiskErrors != 0):
			t.Fatalf("hit counted as %+v", st)
		case !ok && (st.DiskErrors != 1 || st.DiskHits != 0):
			t.Fatalf("miss counted as %+v, want one disk error", st)
		}

		next := []byte("fresh checkpoint")
		s.Put(k, next)
		if !holds(path, spillHeader(next), next) {
			t.Fatal("put did not leave the file holding the new spill")
		}
	})
}
