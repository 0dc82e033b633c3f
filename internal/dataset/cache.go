package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// cacheSchema names the on-disk entry layout. It participates in the
// content-addressed key, so bumping it orphans (never corrupts) every entry
// written under the previous layout. Schema 2 added the congestion-control
// variant name to the key.
const cacheSchema = 2

// entryMagic is the first token of every cache entry file.
const entryMagic = "hsrflowcache"

// FlowCache is a content-addressed, on-disk store of per-flow results: the
// key is a stable hash of everything that determines a flow's outcome (the
// full scenario configuration, the seed, and the model-relevant code
// version), the value its FlowMetrics and endpoint Stats. Campaigns and
// sweeps consult it before simulating, so repeated and overlapping runs
// skip simulation entirely on a hit — and because the simulation is
// deterministic for a key, a hit is byte-equivalent to re-running it.
//
// Entries are written atomically (temp file + rename) and carry a SHA-256
// checksum of their payload; a truncated, corrupted or stale-schema entry is
// detected on read, counted in Errors, deleted best-effort, and treated as a
// miss — the flow simply simulates again and rewrites the entry. All methods
// are safe for concurrent use by campaign workers.
type FlowCache struct {
	dir     string
	version string

	hits         atomic.Int64
	misses       atomic.Int64
	dedups       atomic.Int64
	errors       atomic.Int64
	evictions    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	// maxBytes bounds the on-disk entry total (0 = unbounded); diskBytes is
	// the running estimate that triggers an eviction scan, and evictMu
	// serializes scans so concurrent writers cannot double-evict.
	maxBytes  atomic.Int64
	diskBytes atomic.Int64
	evictMu   sync.Mutex

	// flightMu/flight deduplicate concurrent computations of the same key:
	// the first caller of GetOrCompute for a missing key simulates, everyone
	// else waits for its result.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight computation shared by concurrent misses.
type flightCall struct {
	done chan struct{} // closed when ent/err are final
	ent  CachedFlow
	err  error
}

// OpenFlowCache opens (creating if needed) a flow result cache rooted at
// dir, keyed with the current build's version (buildinfo.Version): a new
// model-relevant code version makes every old entry unreachable. Note that
// builds without VCS stamping report "devel" — when iterating on model code
// with such builds, point -cache at a fresh directory.
func OpenFlowCache(dir string) (*FlowCache, error) {
	return OpenFlowCacheVersion(dir, buildinfo.Version())
}

// OpenFlowCacheVersion is OpenFlowCache with an explicit version string in
// the key, for tests and for callers that version the model themselves.
func OpenFlowCacheVersion(dir, version string) (*FlowCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("dataset: cache directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: cache: %w", err)
	}
	return &FlowCache{dir: dir, version: version}, nil
}

// CachedFlow is one cache entry's payload: everything a metrics-only run
// needs from a flow simulation. Telemetry optionally carries the flow's
// exact telemetry bundle in wire form — entries written by distributed
// work-unit execution include it so a re-executed unit restores the same
// campaign counters bit for bit; entries written by plain flow runs omit it
// (and decode compatibly either way).
type CachedFlow struct {
	Metrics   *analysis.FlowMetrics `json:"metrics"`
	Stats     tcp.Stats             `json:"stats"`
	Telemetry *telemetry.FlowState  `json:"telemetry,omitempty"`
}

// cacheKey is the canonical serialization hashed into an entry's address.
// Every field that can change a flow's outcome appears here; the struct is
// marshalled with encoding/json, whose output is deterministic for a given
// binary, and the schema and version fields fence off layout and model
// changes. Telemetry and FlightRecorder sinks deliberately do not
// participate: they observe a flow, they never alter it.
type cacheKey struct {
	Schema       int               `json:"schema"`
	Version      string            `json:"version"`
	ID           string            `json:"id"`
	Operator     cellular.Operator `json:"operator"`
	Trip         railway.Trip      `json:"trip"`
	TripOffset   time.Duration     `json:"trip_offset"`
	FlowDuration time.Duration     `json:"flow_duration"`
	Seed         int64             `json:"seed"`
	TCP          tcp.Config        `json:"tcp"`
	// CC is the congestion-control variant name. The numeric Variant inside
	// TCP already distinguishes variants, but the name participates on its
	// own so a renumbering of the enum can never silently alias two
	// variants' entries.
	CC       string           `json:"cc"`
	Scenario string           `json:"scenario"`
	Faults   *faults.Schedule `json:"faults,omitempty"`
}

// key computes the scenario's content address under this cache's version.
func (c *FlowCache) key(sc Scenario) (string, error) {
	k := cacheKey{
		Schema:       cacheSchema,
		Version:      c.version,
		ID:           sc.ID,
		Operator:     sc.Operator,
		Trip:         sc.Trip,
		TripOffset:   sc.TripOffset,
		FlowDuration: sc.FlowDuration,
		Seed:         sc.Seed,
		TCP:          sc.TCP,
		CC:           sc.TCP.Variant.String(),
		Scenario:     sc.Scenario,
		Faults:       sc.Faults,
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(k); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// path maps a key to its entry file.
func (c *FlowCache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get looks the scenario up, returning its cached result and true on a hit.
// Corrupt or truncated entries are detected by checksum, removed, counted
// in Errors, and reported as a miss.
func (c *FlowCache) Get(sc Scenario) (CachedFlow, bool) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return CachedFlow{}, false
	}
	return c.getKey(key)
}

// getKey is Get below the key computation.
func (c *FlowCache) getKey(key string) (CachedFlow, bool) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return CachedFlow{}, false
	}
	ent, err := decodeEntry(raw)
	if err != nil {
		// Detected corruption: drop the bad entry so the rewrite after the
		// fallback simulation starts clean.
		os.Remove(c.path(key))
		c.errors.Add(1)
		c.misses.Add(1)
		return CachedFlow{}, false
	}
	c.bytesRead.Add(int64(len(raw)))
	c.hits.Add(1)
	return ent, true
}

// GetOrCompute returns the scenario's result, serving it from disk when
// cached and computing (then storing) it otherwise — with concurrent
// computations of the same key collapsed onto one: the first caller runs
// compute, every simultaneous caller for the same key blocks on that result
// instead of simulating it again (counted in Dedups). shared reports that
// the result came from the cache or another caller's computation rather
// than this call's own compute — callers that attach telemetry to the
// computation can use it exactly like a cache hit (no simulation work of
// their own happened). A compute error is returned to the leader and every
// waiter, and nothing is stored. On a nil cache it just runs compute.
func (c *FlowCache) GetOrCompute(sc Scenario, compute func() (CachedFlow, error)) (CachedFlow, bool, error) {
	return c.getOrCompute(sc, false, compute)
}

// GetOrRun is GetOrCompute with RunFlowMetrics as the computation: the one
// "cache, else simulate" call. A nil cache always simulates.
func (c *FlowCache) GetOrRun(sc Scenario) (CachedFlow, bool, error) {
	return c.GetOrCompute(sc, func() (CachedFlow, error) {
		m, st, err := RunFlowMetrics(sc)
		return CachedFlow{Metrics: m, Stats: st}, err
	})
}

// GetOrComputeFull is GetOrCompute for callers that need a telemetry-bearing
// entry (distributed work-unit execution): a cached entry without a Telemetry
// section is treated as a miss — compute runs and its (telemetry-complete)
// result overwrites the thinner entry, upgrading it for future unit runs.
// Because entries are content-addressed over everything that determines the
// flow's outcome, the recompute is bit-identical to the original, so the
// overwrite changes nothing a metrics-only reader can observe. In-flight
// dedup is namespaced apart from GetOrCompute's so a full computation never
// adopts a concurrent metrics-only result (which would lack telemetry). On
// a nil cache it just runs compute.
func (c *FlowCache) GetOrComputeFull(sc Scenario, compute func() (CachedFlow, error)) (CachedFlow, bool, error) {
	return c.getOrCompute(sc, true, compute)
}

// getOrCompute implements GetOrCompute and, with full, GetOrComputeFull.
func (c *FlowCache) getOrCompute(sc Scenario, full bool, compute func() (CachedFlow, error)) (CachedFlow, bool, error) {
	if c == nil {
		ent, err := compute()
		return ent, false, err
	}
	key, err := c.key(sc)
	if err != nil {
		// Unkeyable scenario: fall back to a plain computation.
		c.errors.Add(1)
		ent, cerr := compute()
		return ent, false, cerr
	}
	if ent, ok := c.getKey(key); ok && (!full || ent.Telemetry != nil) {
		return ent, true, nil
	}
	flightKey := key
	if full {
		flightKey = "full:" + key
	}
	c.flightMu.Lock()
	if call, inflight := c.flight[flightKey]; inflight {
		c.flightMu.Unlock()
		<-call.done
		if call.err != nil {
			return CachedFlow{}, false, call.err
		}
		c.dedups.Add(1)
		return call.ent, true, nil
	}
	call := &flightCall{done: make(chan struct{})}
	if c.flight == nil {
		c.flight = make(map[string]*flightCall)
	}
	c.flight[flightKey] = call
	c.flightMu.Unlock()

	call.ent, call.err = compute()
	if call.err == nil {
		c.putKey(key, call.ent)
	}
	c.flightMu.Lock()
	delete(c.flight, flightKey)
	c.flightMu.Unlock()
	close(call.done)
	return call.ent, false, call.err
}

// Put stores the flow's result under the scenario's key. Writes are atomic
// (unique temp file, then rename), so concurrent writers of the same key —
// which, by construction, carry identical payloads — cannot interleave into
// a torn entry. Storage failures are counted and otherwise ignored: the
// cache is an accelerator, never a correctness dependency.
func (c *FlowCache) Put(sc Scenario, m *analysis.FlowMetrics, st tcp.Stats) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return
	}
	c.putKey(key, CachedFlow{Metrics: m, Stats: st})
}

// putKey is Put below the key computation.
func (c *FlowCache) putKey(key string, ent CachedFlow) {
	raw, err := encodeEntry(ent)
	if err != nil {
		c.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		c.errors.Add(1)
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	c.bytesWritten.Add(int64(len(raw)))
	if max := c.maxBytes.Load(); max > 0 && c.diskBytes.Add(int64(len(raw))) > max {
		c.evict(max)
	}
}

// SetMaxBytes bounds the cache's on-disk entry total: after every write that
// pushes the total past max, the oldest entries (by modification time) are
// evicted until the total fits again, so a long-running server's cache
// directory cannot grow without bound. max <= 0 removes the bound. The
// current total is measured from the directory when the bound is installed
// (and re-measured on every eviction scan), so a pre-populated or externally
// shared directory is bounded correctly too; an over-budget directory is
// trimmed immediately.
func (c *FlowCache) SetMaxBytes(max int64) error {
	if max <= 0 {
		c.maxBytes.Store(0)
		return nil
	}
	c.maxBytes.Store(max)
	total, err := c.scanDiskBytes()
	if err != nil {
		return fmt.Errorf("dataset: cache: %w", err)
	}
	c.diskBytes.Store(total)
	if total > max {
		c.evict(max)
	}
	return nil
}

// scanDiskBytes sums the sizes of every entry file in the cache directory.
func (c *FlowCache) scanDiskBytes() (int64, error) {
	ents, err := c.entries()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	return total, nil
}

// cacheEntryInfo is one on-disk entry's eviction-relevant metadata.
type cacheEntryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// entries lists the cache directory's entry files (temp files excluded).
func (c *FlowCache) entries() ([]cacheEntryInfo, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	ents := make([]cacheEntryInfo, 0, len(dirents))
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		ents = append(ents, cacheEntryInfo{
			path:  filepath.Join(c.dir, name),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	return ents, nil
}

// evict removes the oldest entries (by mtime, ties broken by name for
// determinism) until the directory total is back under max. It re-scans the
// directory for an accurate total — the running estimate drifts when several
// processes share the directory — and tolerates entries vanishing mid-scan
// (another process may be evicting too). Failures are counted and otherwise
// ignored: eviction is bookkeeping, never a correctness dependency.
func (c *FlowCache) evict(max int64) {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	ents, err := c.entries()
	if err != nil {
		c.errors.Add(1)
		return
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	if total > max {
		sort.Slice(ents, func(i, j int) bool {
			if !ents[i].mtime.Equal(ents[j].mtime) {
				return ents[i].mtime.Before(ents[j].mtime)
			}
			return ents[i].path < ents[j].path
		})
		for _, e := range ents {
			if total <= max {
				break
			}
			if err := os.Remove(e.path); err != nil {
				if !os.IsNotExist(err) {
					c.errors.Add(1)
					continue
				}
			}
			total -= e.size
			c.evictions.Add(1)
		}
	}
	c.diskBytes.Store(total)
}

// Counters returns a snapshot of the cache's activity counters in telemetry
// form.
func (c *FlowCache) Counters() telemetry.Cache {
	return telemetry.Cache{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Dedups:       c.dedups.Load(),
		Errors:       c.errors.Load(),
		Evictions:    c.evictions.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// encodeEntry renders an entry file: a header line carrying the magic and
// the SHA-256 of the payload, then the JSON payload.
func encodeEntry(ent CachedFlow) ([]byte, error) {
	payload, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(payload)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%s %s\n", entryMagic, hex.EncodeToString(sum[:]))
	buf.Write(payload)
	return buf.Bytes(), nil
}

// decodeEntry parses and checksum-verifies an entry file.
func decodeEntry(raw []byte) (CachedFlow, error) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: missing header")
	}
	header, payload := raw[:nl], raw[nl+1:]
	fields := bytes.Fields(header)
	if len(fields) != 2 || string(fields[0]) != entryMagic {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: bad header")
	}
	want, err := hex.DecodeString(string(fields[1]))
	if err != nil || len(want) != sha256.Size {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: bad checksum encoding")
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: checksum mismatch (truncated or corrupted)")
	}
	var ent CachedFlow
	if err := json.Unmarshal(payload, &ent); err != nil {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: %w", err)
	}
	if ent.Metrics == nil {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: missing metrics")
	}
	return ent, nil
}
