// Package results is the content-addressed, on-disk result cache behind the
// experiment matrix, the bench harness, the RAS campaign and the dveserve
// sweep service. Every simulation in this repository is a pure function of
// its inputs (dvelint's determinism analyzer enforces it), so a result can
// be keyed by a stable hash of those inputs and served from disk instead of
// recomputed — the "pay only for what you use" shape the ROADMAP asks the
// serving layer to have.
//
// Key scheme: a cache key is hex(SHA-256("dve-results/v<schema>/<kind>\n" ||
// canonical-JSON(key struct))). The key struct for a simulation cell is
// CellKey — (workload spec, topology config, scale, classify flag, seed) —
// and the schema version is bumped whenever the meaning of any keyed input
// or the cached payload shape changes, which invalidates every old entry at
// once without touching the store.
//
// File format: one JSON envelope per entry at <dir>/<key[:2]>/<key>.json:
//
//	{"schema": 1, "key": "<hex>", "sum": "<sha256 of payload bytes>",
//	 "payload": <result JSON>}
//
// Writes are atomic (temp file in the store root, then rename), so a
// concurrent or crashed writer can never leave a half-written entry under a
// live key. Reads are corruption-tolerant: a missing file, bad JSON, a
// schema or key mismatch, or a checksum failure all report a plain miss
// (counted separately as corruption when the file existed) and the caller
// recomputes — a damaged cache can cost time, never correctness.
package results

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"dve/internal/topology"
	"dve/internal/workload"
)

// SchemaVersion invalidates the whole cache when keyed inputs or payload
// shapes change meaning.
//
// History: 2 — dve.Result grew the telemetry metrics snapshot.
// History: 3 — cells are keyed by execution engine (legacy vs partitioned):
// the partitioned per-socket engine orders cross-socket ties by the mailbox
// merge rule instead of the legacy global sequence, so the two engines are
// distinct statistics universes and must never share cache entries.
// History: 4 — stats.Counters grew the RowHammer defense scores and RAS
// scenarios grew the Hammer arm; cached counter payloads from earlier
// schemas would deserialise with silently-zero hammer columns.
// History: 5 — stats.Counters grew the instrumentation-health columns
// (TraceDropped, FlightDumps) and the metrics snapshot two matching
// series; earlier payloads would replay with those columns silently zero
// and a shorter snapshot vector.
const SchemaVersion = 5

// Key is a content-address: the stable hash of a result's full input set.
type Key string

// HashKey hashes an arbitrary JSON-marshalable key struct under a kind tag.
// The kind keeps payload families (simulation cells, bench measurements,
// campaign runs) from colliding even if their key structs ever encode
// identically.
func HashKey(kind string, v any) (Key, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("results: encoding %s key: %w", kind, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "dve-results/v%d/%s\n", SchemaVersion, kind)
	h.Write(b)
	return Key(hex.EncodeToString(h.Sum(nil))), nil
}

// CellKey identifies one simulation cell: everything dve.Run's outcome is a
// function of. Seed repeats Workload.Seed so the key scheme's contract —
// (workload spec, topology config, scale, seed, schema version) — is
// explicit even if the spec's layout changes.
type CellKey struct {
	Workload   workload.Spec   `json:"workload"`
	Config     topology.Config `json:"config"`
	WarmupOps  uint64          `json:"warmup_ops"`
	MeasureOps uint64          `json:"measure_ops"`
	Classify   bool            `json:"classify"`
	Seed       int64           `json:"seed"`
	// Engine is the executed engine family ("legacy" or "partitioned") —
	// NOT the requested mode: an auto run that falls back to legacy shares
	// a key with a forced legacy run, while partitioned results live in
	// their own universe.
	Engine string `json:"engine"`
}

// Hash returns the cell's content address.
func (k CellKey) Hash() (Key, error) { return HashKey("cell", k) }

// Stats is a point-in-time snapshot of a store's traffic.
type Stats struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`  // includes corrupt entries
	Corrupt uint64 `json:"corrupt"` // misses where a file existed but failed validation
	Puts    uint64 `json:"puts"`
	Swept   uint64 `json:"swept"` // orphaned .put-* temp files removed at Open
}

// Lookups returns the total number of Get calls counted.
func (s Stats) Lookups() uint64 { return s.Hits + s.Misses }

// HitRate returns hits/lookups, or 0 when nothing was looked up.
func (s Stats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Store is an on-disk result cache rooted at one directory. All methods are
// safe for concurrent use; entries are sharded into 256 subdirectories by
// the first key byte.
type Store struct {
	dir string

	hits, misses, corrupt, puts, swept atomic.Uint64
}

// Open creates (if needed) and returns the store rooted at dir, sweeping
// any orphaned Put temp files a crashed writer left behind.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("results: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("results: opening store: %w", err)
	}
	s := &Store{dir: dir}
	s.sweepOrphans()
	return s, nil
}

// sweepOrphans removes .put-* temp files from the store root. A crash (or
// kill -9) between CreateTemp and Rename in Put strands one per attempt,
// and nothing else ever deletes them. Swept files are counted in Stats —
// they are the crash-frequency signal of the corruption ledger. The sweep
// is best-effort and unconditional: if another process is mid-Put right
// now, removing its temp file only makes that Put fail (and be retried or
// reported) — it can never corrupt a landed entry, because Rename is the
// only operation that makes an entry visible.
func (s *Store) sweepOrphans() {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), ".put-") {
			continue
		}
		if os.Remove(filepath.Join(s.dir, e.Name())) == nil {
			s.swept.Add(1)
		}
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Path returns where the entry for key lives (whether or not it exists).
func (s *Store) Path(key Key) string {
	shard := "xx"
	if len(key) >= 2 {
		shard = string(key[:2])
	}
	return filepath.Join(s.dir, shard, string(key)+".json")
}

// envelope is the on-disk entry format.
type envelope struct {
	Schema  int             `json:"schema"`
	Key     Key             `json:"key"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// PayloadSum checksums the canonical (whitespace-compacted) form of a JSON
// payload: the digest a stored envelope carries for these bytes. Exported
// for the sweep fabric, which verifies it end-to-end across the
// worker→coordinator upload so link corruption cannot poison the cache.
func PayloadSum(b []byte) (string, error) { return payloadSum(b) }

// payloadSum checksums the canonical (whitespace-compacted) form of a JSON
// payload, so the digest is stable under any re-indentation the envelope
// encoding may apply.
func payloadSum(b []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, b); err != nil {
		return "", err
	}
	sum := sha256.Sum256(compact.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// read loads and validates the entry for key without touching counters.
// exists reports whether a file was present at all (distinguishing a plain
// miss from corruption).
func (s *Store) read(key Key) (payload []byte, exists, ok bool) {
	b, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, false, false
	}
	var env envelope
	if err := json.Unmarshal(b, &env); err != nil ||
		env.Schema != SchemaVersion || env.Key != key {
		return nil, true, false
	}
	sum, err := payloadSum(env.Payload)
	if err != nil || sum != env.Sum {
		return nil, true, false
	}
	return env.Payload, true, true
}

func (s *Store) miss(corrupt bool) {
	s.misses.Add(1)
	if corrupt {
		s.corrupt.Add(1)
	}
}

// GetRaw returns the validated payload bytes for key, or false on any kind
// of miss (absent, truncated, bit-flipped, wrong schema, wrong key). It
// never returns an error: a cache can only save work, not create failures.
func (s *Store) GetRaw(key Key) ([]byte, bool) {
	payload, exists, ok := s.read(key)
	if !ok {
		s.miss(exists)
		return nil, false
	}
	s.hits.Add(1)
	return payload, true
}

// Get unmarshals the cached payload for key into out, reporting whether a
// valid entry existed. Corrupt entries behave exactly like misses.
func (s *Store) Get(key Key, out any) bool {
	payload, exists, ok := s.read(key)
	if ok {
		// A payload that no longer fits the caller's type (a shape change
		// without a schema bump) counts as corruption too: fall back to
		// recompute.
		ok = json.Unmarshal(payload, out) == nil
	}
	if !ok {
		s.miss(exists)
		return false
	}
	s.hits.Add(1)
	return true
}

// Put stores v under key atomically: the entry is written to a temp file in
// the store root and renamed into place, so readers only ever observe
// complete entries and concurrent writers of the same key race benignly.
func (s *Store) Put(key Key, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("results: encoding payload: %w", err)
	}
	sum, err := payloadSum(payload)
	if err != nil {
		return fmt.Errorf("results: encoding payload: %w", err)
	}
	env := envelope{
		Schema:  SchemaVersion,
		Key:     key,
		Sum:     sum,
		Payload: payload,
	}
	b, err := json.Marshal(&env)
	if err != nil {
		return fmt.Errorf("results: encoding envelope: %w", err)
	}
	dst := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	tmp, err := os.CreateTemp(s.dir, ".put-*")
	if err != nil {
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("results: put %s: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Contains reports whether a valid entry exists for key without counting a
// lookup (used by the sweep service to classify enqueue requests).
func (s *Store) Contains(key Key) bool {
	_, _, ok := s.read(key)
	return ok
}

// Stats snapshots the store's traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Corrupt: s.corrupt.Load(),
		Puts:    s.puts.Load(),
		Swept:   s.swept.Load(),
	}
}

// String renders the traffic snapshot for CLI reporting.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d corrupt=%d puts=%d swept=%d hit-rate=%.1f%%",
		s.Hits, s.Misses, s.Corrupt, s.Puts, s.Swept, 100*s.HitRate())
}
