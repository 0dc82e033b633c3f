package dataset

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/tcp"
)

// cachedScenario is a short flow the cache tests simulate repeatedly.
func cachedScenario(t *testing.T, seed int64) Scenario {
	t.Helper()
	return hsrScenario(t, cellular.ChinaMobileLTE, seed, 5*time.Second)
}

// entryFile returns the path of the single entry a one-flow cache holds.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(paths))
	}
	return paths[0]
}

func TestFlowCacheRoundTrip(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	if _, ok := cache.Get(sc); ok {
		t.Fatal("hit on empty cache")
	}
	want, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(sc, want, st)
	ent, ok := cache.Get(sc)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(want, ent.Metrics) {
		t.Errorf("metrics changed through the cache:\nput: %+v\ngot: %+v", want, ent.Metrics)
	}
	if st != ent.Stats {
		t.Errorf("stats changed through the cache:\nput: %+v\ngot: %+v", st, ent.Stats)
	}
	c := cache.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Errors != 0 {
		t.Errorf("counters %+v, want 1 hit / 1 miss / 0 errors", c)
	}
	if c.BytesWritten == 0 || c.BytesRead != c.BytesWritten {
		t.Errorf("byte counters %+v, want read == written > 0", c)
	}
}

func TestFlowCacheKeySensitivity(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(sc, m, st)

	other := sc
	other.Seed++
	if _, ok := cache.Get(other); ok {
		t.Error("seed change still hit")
	}
	other = sc
	other.FlowDuration += time.Second
	if _, ok := cache.Get(other); ok {
		t.Error("duration change still hit")
	}
	other = sc
	other.TCP.MSS++
	if _, ok := cache.Get(other); ok {
		t.Error("TCP config change still hit")
	}
	if _, ok := cache.Get(sc); !ok {
		t.Error("unchanged scenario missed")
	}
}

// TestFlowCacheVersionInvalidates covers the automatic invalidation story:
// entries written under one code version are unreachable from a cache
// opened under another, with no explicit flush step.
func TestFlowCacheVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	v1, err := OpenFlowCacheVersion(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	v1.Put(sc, m, st)
	if _, ok := v1.Get(sc); !ok {
		t.Fatal("same-version miss")
	}
	v2, err := OpenFlowCacheVersion(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(sc); ok {
		t.Error("entry written under v1 served under v2")
	}
}

// TestFlowCacheDetectsCorruption flips and truncates stored entries and
// checks the checksum catches both, the bad entry is dropped, and the
// campaign path falls back to simulation with identical results.
func TestFlowCacheDetectsCorruption(t *testing.T) {
	sc := cachedScenario(t, 7)
	want, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	corruptions := map[string]func([]byte) []byte{
		"bit flip in payload": func(raw []byte) []byte {
			raw[len(raw)-2] ^= 0x40
			return raw
		},
		"truncated payload": func(raw []byte) []byte {
			return raw[:len(raw)-7]
		},
		"truncated to partial header": func(raw []byte) []byte {
			return raw[:10]
		},
		"emptied": func([]byte) []byte {
			return nil
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenFlowCacheVersion(dir, "test")
			if err != nil {
				t.Fatal(err)
			}
			cache.Put(sc, want, st)
			path := entryFile(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := cache.Get(sc); ok {
				t.Fatal("corrupt entry served")
			}
			if c := cache.Counters(); c.Errors != 1 {
				t.Errorf("counters %+v, want exactly 1 error", c)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed (stat err %v)", err)
			}
			// The campaign path must recover transparently: simulate, rewrite,
			// then serve the fresh entry.
			got, hit, err := cache.GetOrRun(sc)
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("corrupt entry reported as campaign hit")
			}
			if !reflect.DeepEqual(want, got.Metrics) {
				t.Errorf("fallback simulation diverged:\nwant %+v\ngot  %+v", want, got)
			}
			if ent, ok := cache.Get(sc); !ok {
				t.Error("entry not rewritten after fallback")
			} else if !reflect.DeepEqual(want, ent.Metrics) {
				t.Error("rewritten entry diverged")
			}
		})
	}
}

// TestFlowCacheConcurrentWriters hammers one cache directory from parallel
// goroutines mixing writers and readers of the same keys — the atomic
// temp-file-plus-rename protocol must never expose a torn entry. Run under
// -race in CI.
func TestFlowCacheConcurrentWriters(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	type flowResult struct {
		metrics *analysis.FlowMetrics
		stats   tcp.Stats
	}
	const flows = 4
	scs := make([]Scenario, flows)
	wants := make([]flowResult, flows)
	for i := range scs {
		scs[i] = cachedScenario(t, int64(100+i))
		m, st, err := RunFlowMetrics(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = flowResult{metrics: m, stats: st}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx := (w + i) % flows
				cache.Put(scs[idx], wants[idx].metrics, wants[idx].stats)
				if ent, ok := cache.Get(scs[idx]); ok {
					if !reflect.DeepEqual(wants[idx].metrics, ent.Metrics) {
						t.Errorf("torn or wrong entry for flow %d", idx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if c := cache.Counters(); c.Errors != 0 {
		t.Errorf("counters %+v, want 0 errors", c)
	}
}

// TestFlowCacheGetOrComputeDeduplicates launches many concurrent misses of
// the same key and checks exactly one computation runs: the leader reports
// shared=false, every follower shares its result (shared=true, counted in
// Dedups), and afterwards the entry is on disk.
func TestFlowCacheGetOrComputeDeduplicates(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	want, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var computes atomic.Int64
	var shareds atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ent, shared, err := cache.GetOrCompute(sc, func() (CachedFlow, error) {
				computes.Add(1)
				<-release // hold every other caller in the in-flight window
				return CachedFlow{Metrics: want, Stats: st}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if shared {
				shareds.Add(1)
			}
			if !reflect.DeepEqual(want, ent.Metrics) {
				t.Error("caller got diverging metrics")
			}
		}()
	}
	// Give every goroutine time to either become the leader or join the
	// flight, then release the leader.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly 1", n)
	}
	if c := cache.Counters(); c.Dedups != shareds.Load() {
		t.Errorf("counters %+v, want dedups == %d shared callers", c, shareds.Load())
	}
	if _, ok := cache.Get(sc); !ok {
		t.Error("entry missing after deduplicated computation")
	}
}

// TestFlowCacheGetOrComputeErrorPropagates checks a failing computation
// reaches the leader and every waiter, and stores nothing.
func TestFlowCacheGetOrComputeErrorPropagates(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	wantErr := errors.New("synthetic failure")
	var wg sync.WaitGroup
	release := make(chan struct{})
	started := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cache.GetOrCompute(sc, func() (CachedFlow, error) {
				close(started)
				<-release
				return CachedFlow{}, wantErr
			})
			if !errors.Is(err, wantErr) {
				t.Errorf("GetOrCompute error = %v, want %v", err, wantErr)
			}
		}()
	}
	<-started
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if _, ok := cache.Get(sc); ok {
		t.Error("failed computation left an entry behind")
	}
}

// TestFlowCacheEviction fills a size-bounded cache past its limit and
// checks the oldest entries (by mtime) are evicted first, newer entries
// survive, and the evictions are counted.
func TestFlowCacheEviction(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFlowCacheVersion(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Write four entries with strictly increasing mtimes.
	var paths []string
	for i := 0; i < 4; i++ {
		s := sc
		s.Seed = int64(1000 + i)
		cache.Put(s, m, st)
		all, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != i+1 {
			t.Fatalf("after put %d: %d entries on disk", i, len(all))
		}
		for _, p := range all {
			if !slices.Contains(paths, p) {
				paths = append(paths, p)
				mtime := time.Now().Add(time.Duration(i-10) * time.Hour)
				if err := os.Chtimes(p, mtime, mtime); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	entrySize := func(p string) int64 {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	one := entrySize(paths[3])
	// Bound to roughly two entries: the two oldest must go.
	if err := cache.SetMaxBytes(2*one + one/2); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		gone := os.IsNotExist(err)
		if wantGone := i < 2; gone != wantGone {
			t.Errorf("entry %d gone=%v, want %v", i, gone, wantGone)
		}
	}
	if c := cache.Counters(); c.Evictions != 2 {
		t.Errorf("counters %+v, want 2 evictions", c)
	}
	// A further Put that busts the bound evicts again, oldest-first.
	s := sc
	s.Seed = 2000
	cache.Put(s, m, st)
	left, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range left {
		total += entrySize(p)
	}
	if total > 2*one+one/2 {
		t.Errorf("post-put total %d bytes exceeds the %d bound", total, 2*one+one/2)
	}
	// The freshly written entry must have survived (it is the newest).
	if _, ok := cache.Get(s); !ok {
		t.Error("newest entry evicted")
	}
	// Dropping the bound stops eviction.
	if err := cache.SetMaxBytes(0); err != nil {
		t.Fatal(err)
	}
	before := cache.Counters().Evictions
	s.Seed = 2001
	cache.Put(s, m, st)
	if after := cache.Counters().Evictions; after != before {
		t.Errorf("eviction ran with the bound removed (%d -> %d)", before, after)
	}
}
