// Cross-run warm caching for the matcher, owned by the Integrator: two pure
// facts — a field's block keys and a pair's match verdict — cached under
// field-content keys for any number of concurrent runs on one handle,
// one-shot integrations and delta sessions alike, bounded,
// concurrency-safe and epoch-invalidated. A delta session reuses the
// verdict of every pair an earlier run probed (a run skips pairs its
// rounds have already connected, so only probed pairs are stored);
// cluster names still renumber on every run (they follow field order),
// but renaming is linear and cheap.
package match

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qilabel/internal/gencache"
	"qilabel/internal/lexicon"
)

// Capacity bounds of a matcher Warm cache, each the population of both
// generations of its table (see gencache). The key cap bounds remembered
// field contents (block keys plus a stable ID each); the pair cap bounds
// match verdicts (one byte of payload per 8-byte key).
const (
	warmKeyCap  = 1 << 16
	warmPairCap = 1 << 20
)

// warmKey is one remembered field content: its block keys and the stable
// ID verdict keys are built from. IDs are never reused within an epoch
// (the counter survives evictions), so a verdict keyed by two IDs can only
// ever mean one content pair.
type warmKey struct {
	keys []string
	id   int32
}

// WarmStats is a point-in-time snapshot of a matcher Warm cache.
type WarmStats struct {
	// KeyHits / KeyMisses count field contents whose block keys were
	// answered from the cache vs derived fresh.
	KeyHits   uint64
	KeyMisses uint64
	// PairHits / PairMisses count probed candidate pairs answered from the
	// verdict cache vs evaluated by matchFields (see PairCounts).
	PairHits   uint64
	PairMisses uint64
	// Keys / Pairs are the current populations (both generations).
	Keys  int
	Pairs int
	// EpochResets counts wholesale invalidations after a lexicon mutation.
	EpochResets uint64
}

// Warm caches the matcher's two pure per-content facts across runs: the
// block keys of a field content (trimmed label + normalized instance set)
// and the match verdict of a content pair under the default threshold.
// Both are pure functions of (content, lexicon, threshold), so reuse can
// never change an assignment, only skip recomputing it.
//
// Bounding and invalidation mirror naming.Warm: every table is bounded by
// gencache's two-generation policy (the key intern table a bare
// gencache.Map under the Warm's lock, which also issues the IDs), and a
// lexicon-epoch check drops everything (including verdicts, whose ID keys
// would otherwise dangle after the ID counter restarts) when the lexicon
// mutates.
//
// A Warm is safe for concurrent use; one Warm serves one lexicon at the
// default instance-overlap threshold — AssignContext ignores it on a
// mismatch.
type Warm struct {
	lex *lexicon.Lexicon

	gen atomic.Uint64 // lexicon generation the contents belong to

	mu     sync.RWMutex // guards keys and nextID
	keys   gencache.Map[string, warmKey]
	nextID int32

	pairs *gencache.Sharded[bool]

	keyHits, keyMisses atomic.Uint64
	epochResets        atomic.Uint64
}

// NewWarm creates a matcher warm cache over the given lexicon (nil: the
// embedded default).
func NewWarm(lex *lexicon.Lexicon) *Warm {
	return newWarm(lex, warmKeyCap, warmPairCap)
}

// newWarm is NewWarm with explicit key and pair caps, for the bound tests.
func newWarm(lex *lexicon.Lexicon, keyCap, pairCap int) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	w := &Warm{
		lex:   lex,
		keys:  gencache.NewMap[string, warmKey](keyCap),
		pairs: gencache.NewSharded[bool](pairCap),
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

// reset clears every table and restarts the ID space; callers hold w.mu.
// Verdicts must go with the keys: a restarted ID counter would otherwise
// re-issue IDs that stale verdict entries still mean old contents by.
func (w *Warm) reset(gen uint64) {
	w.keys.Reset()
	w.nextID = 0
	w.pairs.Reset()
	w.gen.Store(gen)
	w.epochResets.Add(1)
}

// fieldKeys probes the key table for a field content, returning its block
// keys and stable ID. Old-generation hits promote.
func (w *Warm) fieldKeys(ckey string) ([]string, int32, bool) {
	w.mu.RLock()
	e, ok, old := w.keys.Peek(ckey)
	w.mu.RUnlock()
	if !ok {
		w.keyMisses.Add(1)
		return nil, 0, false
	}
	w.keyHits.Add(1)
	if old {
		w.mu.Lock()
		w.keys.Get(ckey)
		w.mu.Unlock()
	}
	return e.keys, e.id, true
}

// internKeys stores freshly derived block keys and returns the content's
// stable ID. A concurrent run may have interned the same content meanwhile;
// its entry wins so every run shares one ID per content.
func (w *Warm) internKeys(ckey string, keys []string) int32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.keys.Get(ckey); ok {
		return e.id
	}
	if w.nextID < 0 { // ID space exhausted: start a fresh epoch
		w.reset(w.gen.Load())
	}
	e := warmKey{keys: keys, id: w.nextID}
	w.nextID++
	w.keys.Put(ckey, e)
	return e.id
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

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	st := WarmStats{
		KeyHits:     w.keyHits.Load(),
		KeyMisses:   w.keyMisses.Load(),
		EpochResets: w.epochResets.Load(),
	}
	w.mu.RLock()
	st.Keys = w.keys.Len()
	w.mu.RUnlock()
	p := w.pairs.Stats()
	st.PairHits, st.PairMisses, st.Pairs = p.Hits, p.Misses, p.Len
	return st
}
