package naming

import (
	"sync"
	"sync/atomic"

	"qilabel/internal/gencache"
	"qilabel/internal/lexicon"
)

// Capacity bounds of a Warm cache, each the population of both
// generations of its table (see gencache). The label cap bounds interned
// analyses (a few hundred bytes each: ~tens of MiB worst case); the
// verdict cap bounds shared Relate entries (16 bytes each: ~16 MiB worst
// case).
const (
	warmLabelCap   = 1 << 16
	warmVerdictCap = 1 << 20
)

// warmLabel is one interned label: its analysis and the stable ID Relate
// memo keys are built from. IDs are non-negative and never reused within an
// epoch (the counter survives evictions), so a verdict keyed by two IDs can
// only ever mean one label pair.
type warmLabel struct {
	lw *labelWords
	id int32
}

// WarmStats is a point-in-time snapshot of a Warm cache's counters.
type WarmStats struct {
	// LabelHits / LabelMisses count PrecomputeAnalysis-equivalent label
	// lookups answered from the intern table vs analyzed fresh.
	LabelHits   uint64
	LabelMisses uint64
	// LabelsEvicted counts interned analyses dropped by generation
	// rotation under the cap.
	LabelsEvicted uint64
	// LabelsInterned is the current intern-table population (both
	// generations).
	LabelsInterned int
	// VerdictHits / VerdictMisses count shared Relate-cache probes.
	VerdictHits   uint64
	VerdictMisses uint64
	// Verdicts is the current shared verdict population (both generations,
	// all shards).
	Verdicts int
	// EpochResets counts wholesale invalidations after a lexicon mutation.
	EpochResets uint64
}

// Warm is the cross-run cache a long-lived handle (qilabel's Integrator)
// owns, and its only one: a bounded intern table of label analyses, each
// carrying the label's equivalence keys, and a sharded shared cache of
// Relate verdicts, both keyed under one lexicon epoch. Runs reach it
// through the Analysis it builds (Warm.Analysis): the matcher reads its
// block keys (EquivalenceKeys) and its lexical verdicts (Equivalent)
// there, the naming phases their Definition 1 relations. Pair
// evaluations, group solves, isolated elections and node derivations are
// recomputed by every run from these per-label and per-pair facts.
//
// Every cached fact is a pure function of (label(s), lexicon), so reuse can
// never change an outcome, only skip recomputing it — warm runs stay
// byte-identical to cold ones. Staleness is handled by epoch: the Warm
// snapshots lexicon.Generation and drops everything when it moves.
//
// Both tables are bounded by gencache's two-generation policy. The intern
// table is a bare gencache.Map under the Warm's own lock, because issuing
// a label's ID and storing it must happen under one lock; the verdicts
// are a gencache.Sharded map.
//
// A Warm is safe for concurrent use. The per-run hot path stays lock-free:
// workers consult their private Semantics overlay first and touch the
// shared shards only on overlay misses (at most once per distinct label
// pair per worker per run).
type Warm struct {
	lex *lexicon.Lexicon

	gen atomic.Uint64 // lexicon generation the contents belong to

	mu     sync.RWMutex // guards labels and nextID
	labels gencache.Map[string, warmLabel]
	nextID int32

	verdicts *gencache.Sharded[Rel]

	labelHits, labelMisses, labelsEvicted atomic.Uint64
	epochResets                           atomic.Uint64
}

// NewWarm creates a warm cache over the given lexicon (nil: the embedded
// default).
func NewWarm(lex *lexicon.Lexicon) *Warm {
	return newWarm(lex, warmLabelCap, warmVerdictCap)
}

// newWarm is NewWarm with explicit label and verdict caps, for the bound
// tests.
func newWarm(lex *lexicon.Lexicon, labelCap, verdictCap int) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	w := &Warm{
		lex:      lex,
		labels:   gencache.NewMap[string, warmLabel](labelCap),
		verdicts: gencache.NewSharded[Rel](verdictCap),
	}
	w.gen.Store(lex.Generation())
	return w
}

// ensureEpoch drops every cached fact if the lexicon mutated since the last
// run. Mutating the lexicon concurrently with runs is outside the
// documented contract (as for Semantics); this check makes the sequential
// mutate-then-integrate pattern correct.
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

// reset clears every table; callers hold w.mu.
func (w *Warm) reset(gen uint64) {
	w.labels.Reset()
	w.nextID = 0
	w.verdicts.Reset()
	w.gen.Store(gen)
	w.epochResets.Add(1)
}

// Analysis builds the per-run label-analysis table for the given labels,
// interning analyses through the warm cache: labels this handle has already
// seen are shared (no tokenize/stem/lookup work), labels never seen are
// analyzed once and interned. The returned Analysis is a plain immutable
// table — downstream workers are oblivious to where its entries came from.
func (w *Warm) Analysis(labels []string) *Analysis {
	w.ensureEpoch()
	a := &Analysis{
		lex:     w.lex,
		byLabel: make(map[string]*labelWords, len(labels)),
		ids:     make(map[string]int32, len(labels)),
		warm:    w,
	}

	// Pass 1 (shared read lock): resolve hits, collect misses. Old-
	// generation hits are resolved too but noted for promotion.
	var misses, promote []string
	w.mu.RLock()
	for _, l := range labels {
		if _, ok := a.byLabel[l]; ok {
			continue
		}
		if e, ok, old := w.labels.Peek(l); ok {
			a.byLabel[l] = e.lw
			a.ids[l] = e.id
			if old {
				promote = append(promote, l)
			}
			continue
		}
		a.byLabel[l] = nil // dedup marker; filled below
		misses = append(misses, l)
	}
	w.mu.RUnlock()
	w.labelHits.Add(uint64(len(a.byLabel) - len(misses)))
	w.labelMisses.Add(uint64(len(misses)))

	// Pass 2 (no lock): analyze the misses.
	fresh := make([]*labelWords, len(misses))
	for i, l := range misses {
		fresh[i] = analyzeLabel(w.lex, l)
	}

	// Pass 3 (write lock): promote old-generation hits, intern the fresh
	// analyses. A concurrent run may have interned some of the same labels
	// meanwhile; its entry wins so every run shares one canonical analysis
	// and ID per label.
	if len(promote) > 0 || len(misses) > 0 {
		evicted := 0
		w.mu.Lock()
		for _, l := range promote {
			// No longer old: either promoted by a concurrent run or
			// dropped by a rotation in between; the analysis and ID
			// resolved in pass 1 stay valid for this run either way.
			if e, _, old := w.labels.Peek(l); old {
				evicted += w.labels.Put(l, e)
			}
		}
		for i, l := range misses {
			if e, ok, _ := w.labels.Peek(l); ok {
				a.byLabel[l] = e.lw
				a.ids[l] = e.id
				continue
			}
			if w.nextID < 0 { // ID space exhausted: start a fresh epoch
				w.reset(w.gen.Load())
			}
			e := warmLabel{lw: fresh[i], id: w.nextID}
			w.nextID++
			evicted += w.labels.Put(l, e)
			a.byLabel[l] = e.lw
			a.ids[l] = e.id
		}
		w.mu.Unlock()
		w.labelsEvicted.Add(uint64(evicted))
	}
	return a
}

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	st := WarmStats{
		LabelHits:     w.labelHits.Load(),
		LabelMisses:   w.labelMisses.Load(),
		LabelsEvicted: w.labelsEvicted.Load(),
		EpochResets:   w.epochResets.Load(),
	}
	w.mu.RLock()
	st.LabelsInterned = w.labels.Len()
	w.mu.RUnlock()
	v := w.verdicts.Stats()
	st.VerdictHits, st.VerdictMisses, st.Verdicts = v.Hits, v.Misses, v.Len
	return st
}
