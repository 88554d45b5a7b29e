package results

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dve/internal/stats"
	"dve/internal/topology"
	"dve/internal/workload"
)

func testKey(t *testing.T, seed int64) Key {
	t.Helper()
	spec, ok := workload.ByName("fft", 16)
	if !ok {
		t.Fatal("fft missing from suite")
	}
	spec.Seed = seed
	k, err := CellKey{
		Workload:   spec,
		Config:     topology.Default(topology.ProtoDeny),
		WarmupOps:  50_000,
		MeasureOps: 120_000,
		Seed:       seed,
	}.Hash()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// payload mirrors the shape of a cached dve.Result (including a histogram,
// whose JSON round trip the cache depends on) without importing dve.
type payload struct {
	Workload string
	Cycles   uint64
	Counters stats.Counters
}

func testPayload() payload {
	p := payload{Workload: "fft", Cycles: 123_456}
	p.Counters.LLCMisses = 42
	p.Counters.LinkBytes = 9000
	for _, v := range []uint64{1, 2, 3, 100, 5000} {
		p.Counters.MissLatency.Add(v)
	}
	return p
}

func TestKeyStability(t *testing.T) {
	a, b := testKey(t, 1), testKey(t, 1)
	if a != b {
		t.Fatalf("same inputs hashed differently: %s vs %s", a, b)
	}
	if a == testKey(t, 2) {
		t.Fatal("different seeds produced the same key")
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", a)
	}
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	var miss payload
	if s.Get(key, &miss) {
		t.Fatal("hit on an empty store")
	}
	want := testPayload()
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(key) {
		t.Fatal("Contains false after Put")
	}
	var got payload
	if !s.Get(key, &got) {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mutated the payload:\ngot  %+v\nwant %+v", got, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// corrupt damages the stored entry file with fn and asserts the store
// treats the entry as a miss (recompute), not an error.
func corruptAndCheck(t *testing.T, name string, fn func(b []byte) []byte) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	if err := s.Put(key, testPayload()); err != nil {
		t.Fatal(err)
	}
	path := s.Path(key)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(b), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Fatalf("%s: corrupt entry served as a hit", name)
	}
	if s.Contains(key) {
		t.Fatalf("%s: corrupt entry reported present", name)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("%s: corruption not counted: %+v", name, st)
	}
	// The cache must recover: a fresh Put over the damage works.
	if err := s.Put(key, testPayload()); err != nil {
		t.Fatalf("%s: Put over corrupt entry: %v", name, err)
	}
	if !s.Get(key, &out) {
		t.Fatalf("%s: miss after repair Put", name)
	}
}

func TestCorruptionTolerance(t *testing.T) {
	t.Run("truncated", func(t *testing.T) {
		corruptAndCheck(t, "truncated", func(b []byte) []byte { return b[:len(b)/2] })
	})
	t.Run("bit-flip", func(t *testing.T) {
		corruptAndCheck(t, "bit-flip", func(b []byte) []byte {
			// Flip a bit inside the payload region, far from the envelope
			// framing, so only the checksum can catch it.
			c := append([]byte(nil), b...)
			c[len(c)*3/4] ^= 0x04
			return c
		})
	})
	t.Run("emptied", func(t *testing.T) {
		corruptAndCheck(t, "emptied", func(b []byte) []byte { return nil })
	})
	t.Run("wrong-key", func(t *testing.T) {
		// A valid envelope stored under the wrong filename must not be
		// served for this key.
		s, err := Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		other := testKey(t, 2)
		if err := s.Put(other, testPayload()); err != nil {
			t.Fatal(err)
		}
		key := testKey(t, 1)
		if err := os.MkdirAll(filepath.Dir(s.Path(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(s.Path(other))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(key), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var out payload
		if s.Get(key, &out) {
			t.Fatal("entry with mismatched embedded key served as a hit")
		}
	})
}

func TestPayloadShapeMismatchIsMiss(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	if err := s.Put(key, "just a string"); err != nil {
		t.Fatal(err)
	}
	var out payload
	if s.Get(key, &out) {
		t.Fatal("incompatible payload shape served as a hit")
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("shape mismatch not counted as corruption: %+v", st)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	want := testPayload()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := s.Put(key, want); err != nil {
					t.Error(err)
					return
				}
				var got payload
				if s.Get(key, &got) && !reflect.DeepEqual(got, want) {
					t.Error("observed a torn entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	// No temp files left behind.
	entries, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}

func TestHitRate(t *testing.T) {
	var st Stats
	if st.HitRate() != 0 {
		t.Fatal("empty stats hit rate != 0")
	}
	st = Stats{Hits: 9, Misses: 1}
	if r := st.HitRate(); r != 0.9 {
		t.Fatalf("hit rate = %v, want 0.9", r)
	}
}

// TestOpenSweepsOrphanTempFiles: a crash between CreateTemp and Rename
// strands a .put-* file that no code path would ever touch again. Open
// sweeps them and counts the removals in the corruption ledger.
func TestOpenSweepsOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, 1)
	if err := s1.Put(key, testPayload()); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{".put-1234", ".put-orphan"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial write"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A .put-* directory must not be swept (Remove would fail silently, but
	// the counter must not claim it either) and nothing outside the pattern
	// may be touched.
	if err := os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Stats().Swept; got != 2 {
		t.Fatalf("swept = %d, want 2", got)
	}
	for _, name := range []string{".put-1234", ".put-orphan"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("orphan %s survived the sweep (err %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unrelated.txt")); err != nil {
		t.Fatalf("sweep removed an unrelated file: %v", err)
	}
	// The landed entry is untouched and still validates.
	var out payload
	if !s2.Get(key, &out) || out.Cycles != testPayload().Cycles {
		t.Fatal("live entry unreadable after sweep")
	}
	if !strings.Contains(s2.Stats().String(), "swept=2") {
		t.Fatalf("stats string %q missing sweep count", s2.Stats().String())
	}
}

// FuzzEnvelope feeds arbitrary bytes to the envelope decoder as the entry
// of one key. Every input must decode to a miss or to exactly the payload
// Put stored under that key — never a panic, never other bytes.
func FuzzEnvelope(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := Key(strings.Repeat("ab", 32))
	if err := s.Put(key, testPayload()); err != nil {
		f.Fatal(err)
	}
	stored, err := os.ReadFile(s.Path(key))
	if err != nil {
		f.Fatal(err)
	}
	want, err := json.Marshal(testPayload())
	if err != nil {
		f.Fatal(err)
	}
	if got, ok := decodeEnvelope(stored, key); !ok || string(got) != string(want) {
		f.Fatalf("the envelope Put wrote decodes to %q, %v; want the marshalled payload", got, ok)
	}
	f.Add(stored)
	f.Add(stored[:len(stored)/2])
	flipped := append([]byte(nil), stored...)
	flipped[len(flipped)*2/3] ^= 0x04
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		got, ok := decodeEnvelope(b, key)
		if ok && string(got) != string(want) {
			t.Fatalf("decoded a payload other than the stored one:\n%s", got)
		}
	})
}
