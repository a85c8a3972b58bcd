// Cross-run warm caching for the matcher, owned by the Integrator: two pure
// facts — a field's block keys and a pair's match verdict — cached under
// field-content keys for any number of concurrent runs on one handle,
// one-shot integrations and delta sessions alike, bounded,
// concurrency-safe and epoch-invalidated. A delta session reuses the
// verdicts of every pair whose two endpoints both existed in an earlier
// run; cluster names still renumber on every run (they follow field
// order), but renaming is linear and cheap.
package match

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qilabel/internal/lexicon"
)

// Default capacity bounds for a matcher Warm cache. The key cap bounds
// remembered field contents (block keys plus a stable ID each); the pair
// cap bounds match verdicts (one byte of payload per 8-byte key).
const (
	DefaultWarmKeyCap  = 1 << 16
	DefaultWarmPairCap = 1 << 20
)

// matchWarmShards spreads the verdict map over independently locked shards
// so the parallel pairwise pass rarely contends.
const matchWarmShards = 64

// warmKey is one remembered field content: its block keys and the stable
// ID verdict keys are built from. IDs are never reused within an epoch
// (the counter survives evictions), so a verdict keyed by two IDs can only
// ever mean one content pair.
type warmKey struct {
	keys []string
	id   int32
}

// pairShard is one shard of the verdict cache, bounded by the same
// two-generation scheme as the key table.
type pairShard struct {
	mu  sync.RWMutex
	cur map[uint64]bool
	old map[uint64]bool
}

// assignEntry is one cached whole-corpus assignment: the cluster name of
// every leaf in canonical enumeration order, and the cluster count.
type assignEntry struct {
	names []string
	n     int
}

// DefaultWarmAssignCap bounds remembered whole-corpus assignments.
const DefaultWarmAssignCap = 1 << 10

// WarmStats is a point-in-time snapshot of a matcher Warm cache.
type WarmStats struct {
	// KeyHits / KeyMisses count field contents whose block keys were
	// answered from the cache vs derived fresh.
	KeyHits   uint64
	KeyMisses uint64
	// PairHits / PairMisses count candidate pairs answered from the verdict
	// cache vs evaluated by matchFields.
	PairHits   uint64
	PairMisses uint64
	// Keys / Pairs are the current populations (both generations).
	Keys  int
	Pairs int
	// AssignHits / AssignMisses count whole-corpus assignment probes
	// (keyed by Options.WarmKey) answered from the cache vs matched in
	// full; Assigns is the population.
	AssignHits   uint64
	AssignMisses uint64
	Assigns      int
	// EpochResets counts wholesale invalidations after a lexicon mutation.
	EpochResets uint64
}

// Warm caches the matcher's two pure per-content facts across runs: the
// block keys of a field content (trimmed label + normalized instance set)
// and the match verdict of a content pair under a fixed threshold. Both are
// pure functions of (content, lexicon, threshold), so reuse can never
// change an assignment, only skip recomputing it.
//
// Bounding and invalidation mirror naming.Warm: two-generation rotation at
// half the cap with promotion on old-generation hits, and a lexicon-epoch
// check that drops everything (including verdicts, whose ID keys would
// otherwise dangle after the ID counter restarts) when the lexicon mutates.
//
// A Warm is safe for concurrent use; one Warm serves one (lexicon,
// threshold) configuration — AssignContext ignores it on a mismatch.
type Warm struct {
	lex        *lexicon.Lexicon
	minOverlap float64
	keyCap     int
	pairCap    int // per shard

	gen atomic.Uint64 // lexicon generation the contents belong to

	mu     sync.RWMutex // guards cur/old/nextID
	cur    map[string]warmKey
	old    map[string]warmKey
	nextID int32

	shards [matchWarmShards]pairShard

	// Whole-corpus assignment cache, keyed by Options.WarmKey (the caller's
	// fingerprint of the exact canonical source content plus every
	// assignment-affecting option). A hit replays the leaf->cluster vector
	// and skips the pairwise pass entirely; the content-keyed tables above
	// still accelerate misses.
	amu  sync.RWMutex
	aCur map[string]assignEntry
	aOld map[string]assignEntry

	keyHits, keyMisses       atomic.Uint64
	pairHits, pairMisses     atomic.Uint64
	assignHits, assignMisses atomic.Uint64
	epochResets              atomic.Uint64
}

// NewWarm creates a matcher warm cache over the given lexicon (nil: the
// embedded default) and instance-overlap threshold (non-positive: the
// matcher's 0.5 default). keyCap bounds remembered field contents, pairCap
// the verdict entries; zero or negative caps select the defaults.
func NewWarm(lex *lexicon.Lexicon, minOverlap float64, keyCap, pairCap int) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	if minOverlap <= 0 {
		minOverlap = 0.5
	}
	if keyCap <= 0 {
		keyCap = DefaultWarmKeyCap
	}
	if keyCap < 2 {
		keyCap = 2
	}
	if pairCap <= 0 {
		pairCap = DefaultWarmPairCap
	}
	perShard := pairCap / matchWarmShards
	if perShard < 2 {
		perShard = 2
	}
	w := &Warm{
		lex:        lex,
		minOverlap: minOverlap,
		keyCap:     keyCap,
		pairCap:    perShard,
		cur:        make(map[string]warmKey),
	}
	w.gen.Store(lex.Generation())
	return w
}

// ensureEpoch drops every cached fact if the lexicon mutated since the
// last run (the sequential mutate-then-integrate pattern; mutating
// concurrently with runs is outside the documented contract).
func (w *Warm) ensureEpoch() {
	g := w.lex.Generation()
	if w.gen.Load() == g {
		return
	}
	w.mu.Lock()
	if w.gen.Load() != g {
		w.reset(g)
	}
	w.mu.Unlock()
}

// reset clears both tables and restarts the ID space; callers hold w.mu.
// Verdicts must go with the keys: a restarted ID counter would otherwise
// re-issue IDs that stale verdict entries still mean old contents by.
func (w *Warm) reset(gen uint64) {
	w.cur = make(map[string]warmKey)
	w.old = nil
	w.nextID = 0
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		sh.cur = nil
		sh.old = nil
		sh.mu.Unlock()
	}
	w.amu.Lock()
	w.aCur = nil
	w.aOld = nil
	w.amu.Unlock()
	w.gen.Store(gen)
	w.epochResets.Add(1)
}

// assignLookup probes the whole-corpus assignment cache. Old-generation
// hits promote.
func (w *Warm) assignLookup(key string) (assignEntry, bool) {
	w.amu.RLock()
	if e, ok := w.aCur[key]; ok {
		w.amu.RUnlock()
		w.assignHits.Add(1)
		return e, true
	}
	e, ok := w.aOld[key]
	w.amu.RUnlock()
	if !ok {
		w.assignMisses.Add(1)
		return assignEntry{}, false
	}
	w.assignHits.Add(1)
	w.amu.Lock()
	if _, again := w.aCur[key]; !again {
		delete(w.aOld, key)
		w.assignStoreLocked(key, e)
	}
	w.amu.Unlock()
	return e, true
}

// assignStore publishes a freshly computed whole-corpus assignment.
func (w *Warm) assignStore(key string, e assignEntry) {
	w.amu.Lock()
	w.assignStoreLocked(key, e)
	w.amu.Unlock()
}

// assignStoreLocked inserts under w.amu, rotating at half the cap.
func (w *Warm) assignStoreLocked(key string, e assignEntry) {
	if w.aCur == nil {
		w.aCur = make(map[string]assignEntry)
	}
	if len(w.aCur) >= DefaultWarmAssignCap/2 {
		if _, ok := w.aCur[key]; !ok {
			w.aOld = w.aCur
			w.aCur = make(map[string]assignEntry)
		}
	}
	w.aCur[key] = e
}

// fieldKeys probes the key table for a field content, returning its block
// keys and stable ID. Old-generation hits promote.
func (w *Warm) fieldKeys(ckey string) ([]string, int32, bool) {
	w.mu.RLock()
	if e, ok := w.cur[ckey]; ok {
		w.mu.RUnlock()
		w.keyHits.Add(1)
		return e.keys, e.id, true
	}
	e, ok := w.old[ckey]
	w.mu.RUnlock()
	if !ok {
		w.keyMisses.Add(1)
		return nil, 0, false
	}
	w.keyHits.Add(1)
	w.mu.Lock()
	if _, again := w.cur[ckey]; !again {
		delete(w.old, ckey)
		w.intern(ckey, e)
	}
	w.mu.Unlock()
	return e.keys, e.id, true
}

// internKeys stores freshly derived block keys and returns the content's
// stable ID. A concurrent run may have interned the same content meanwhile;
// its entry wins so every run shares one ID per content.
func (w *Warm) internKeys(ckey string, keys []string) int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.cur[ckey]; ok {
		return e.id
	}
	if e, ok := w.old[ckey]; ok {
		delete(w.old, ckey)
		w.intern(ckey, e)
		return e.id
	}
	if w.nextID < 0 { // ID space exhausted: start a fresh epoch
		w.reset(w.gen.Load())
	}
	e := warmKey{keys: keys, id: w.nextID}
	w.nextID++
	w.intern(ckey, e)
	return e.id
}

// intern inserts into the current generation, rotating at half the cap;
// callers hold w.mu.
func (w *Warm) intern(ckey string, e warmKey) {
	if len(w.cur) >= w.keyCap/2 {
		if _, ok := w.cur[ckey]; !ok {
			w.old = w.cur
			w.cur = make(map[string]warmKey, w.keyCap/2)
		}
	}
	w.cur[ckey] = e
}

// contentKey serializes exactly the field content the similarity signals
// read: the trimmed label and the normalized (case-folded, trimmed,
// deduplicated) instance value set, sorted for stability. Fields with
// equal content keys receive identical block keys, and identical verdicts
// against any third field.
func contentKey(f *fieldInfo) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(len(f.label)))
	b.WriteByte(':')
	b.WriteString(f.label)
	vals := make([]string, 0, len(f.inst))
	for v := range f.inst {
		vals = append(vals, v)
	}
	sort.Strings(vals)
	for _, v := range vals {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

// pairIDKey builds the order-independent verdict key of two content IDs
// (matchFields is symmetric).
func pairIDKey(a, b int32) uint64 {
	if b < a {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// pair probes the verdict cache. Old-generation hits promote.
func (w *Warm) pair(key uint64) (bool, bool) {
	sh := &w.shards[(key^(key>>32))%matchWarmShards]
	sh.mu.RLock()
	if v, ok := sh.cur[key]; ok {
		sh.mu.RUnlock()
		w.pairHits.Add(1)
		return v, true
	}
	v, ok := sh.old[key]
	sh.mu.RUnlock()
	if !ok {
		w.pairMisses.Add(1)
		return false, false
	}
	w.pairHits.Add(1)
	sh.mu.Lock()
	if _, again := sh.cur[key]; !again {
		sh.storeLocked(key, v, w)
	}
	sh.mu.Unlock()
	return v, true
}

// storePair publishes a freshly evaluated verdict.
func (w *Warm) storePair(key uint64, v bool) {
	sh := &w.shards[(key^(key>>32))%matchWarmShards]
	sh.mu.Lock()
	sh.storeLocked(key, v, w)
	sh.mu.Unlock()
}

// storeLocked inserts under the shard lock, rotating at half the per-shard
// cap.
func (sh *pairShard) storeLocked(key uint64, v bool, w *Warm) {
	if sh.cur == nil {
		sh.cur = make(map[uint64]bool)
	}
	if len(sh.cur) >= w.pairCap/2 {
		if _, ok := sh.cur[key]; !ok {
			sh.old = sh.cur
			sh.cur = make(map[uint64]bool)
		}
	}
	sh.cur[key] = v
}

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	st := WarmStats{
		KeyHits:      w.keyHits.Load(),
		KeyMisses:    w.keyMisses.Load(),
		PairHits:     w.pairHits.Load(),
		PairMisses:   w.pairMisses.Load(),
		AssignHits:   w.assignHits.Load(),
		AssignMisses: w.assignMisses.Load(),
		EpochResets:  w.epochResets.Load(),
	}
	w.mu.RLock()
	st.Keys = len(w.cur) + len(w.old)
	w.mu.RUnlock()
	w.amu.RLock()
	st.Assigns = len(w.aCur) + len(w.aOld)
	w.amu.RUnlock()
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.RLock()
		st.Pairs += len(sh.cur) + len(sh.old)
		sh.mu.RUnlock()
	}
	return st
}
