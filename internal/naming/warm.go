package naming

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qilabel/internal/cluster"
	"qilabel/internal/lexicon"
)

// Default capacity bounds for a Warm cache. The label cap bounds interned
// analyses (a few hundred bytes each: ~tens of MiB worst case); the verdict
// cap bounds shared Relate entries (16 bytes each: ~16 MiB worst case).
// Both are two-generation bounds — see the eviction notes on Warm.
const (
	DefaultWarmLabelCap   = 1 << 16
	DefaultWarmVerdictCap = 1 << 20
)

// DefaultWarmSolveCap bounds each of the three solve-family tables (group
// solves, isolated elections, per-node candidate derivations). Entries are
// heavier than verdicts — an outcome with its solutions — so the cap is
// smaller.
const DefaultWarmSolveCap = 1 << 14

// warmShards spreads the shared verdict map over independently locked
// shards so concurrent runs on one handle rarely contend.
const warmShards = 64

// warmLabel is one interned label: its analysis and the stable ID Relate
// memo keys are built from. IDs are non-negative and never reused within an
// epoch (the counter survives evictions), so a verdict keyed by two IDs can
// only ever mean one label pair.
type warmLabel struct {
	lw *labelWords
	id int32
}

// verdictShard is one shard of the shared cross-run Relate cache, bounded
// by the same two-generation scheme as the label table.
type verdictShard struct {
	mu  sync.RWMutex
	cur map[uint64]Rel
	old map[uint64]Rel
}

// groupEntry stores one solved group: the outcome and the inference-rule
// tally the solve produced. The outcome's Relation still references the
// clusters of the run that solved it; outcomeFor rebinds it before reuse.
type groupEntry struct {
	outcome  *GroupOutcome
	counters Counters
}

// isolatedEntry stores one isolated-cluster election.
type isolatedEntry struct {
	label    string
	counters Counters
}

// nodeEntry is one cached candidate-label derivation for a global internal
// node, stored under its positional key (WarmKey + node index) only: the
// node's sorted descendant leaf set, the ranked candidates, the
// potential-label count, and the inference-rule tally the derivation
// produced. The slices are shared on reuse; downstream phases read them
// without mutating (the assignment phase copies entries before editing).
type nodeEntry struct {
	clusters   []string
	cands      []CandidateLabel
	potentials int
	counters   Counters
}

// warmTable is a bounded, concurrency-safe two-generation map — the
// building block of the solve-family caches. Inserts land in the current
// generation, which becomes the old one at half the cap; old-generation
// hits promote.
type warmTable[V any] struct {
	cap int

	mu  sync.RWMutex
	cur map[string]V
	old map[string]V

	hits, misses atomic.Uint64
}

func (t *warmTable[V]) lookup(key string) (V, bool) {
	t.mu.RLock()
	if v, ok := t.cur[key]; ok {
		t.mu.RUnlock()
		t.hits.Add(1)
		return v, true
	}
	v, ok := t.old[key]
	t.mu.RUnlock()
	if !ok {
		t.misses.Add(1)
		var zero V
		return zero, false
	}
	t.hits.Add(1)
	t.mu.Lock()
	if _, again := t.cur[key]; !again {
		delete(t.old, key)
		t.storeLocked(key, v)
	}
	t.mu.Unlock()
	return v, true
}

func (t *warmTable[V]) store(key string, v V) {
	t.mu.Lock()
	t.storeLocked(key, v)
	t.mu.Unlock()
}

func (t *warmTable[V]) storeLocked(key string, v V) {
	if t.cur == nil {
		t.cur = make(map[string]V)
	}
	if len(t.cur) >= t.cap/2 {
		if _, ok := t.cur[key]; !ok {
			t.old = t.cur
			t.cur = make(map[string]V)
		}
	}
	t.cur[key] = v
}

func (t *warmTable[V]) reset() {
	t.mu.Lock()
	t.cur = nil
	t.old = nil
	t.mu.Unlock()
}

func (t *warmTable[V]) size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cur) + len(t.old)
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
	// SolveHits / SolveMisses count group solves and isolated-cluster
	// elections answered from the cache vs computed; Solves is the stored
	// population (groups + isolated).
	SolveHits   uint64
	SolveMisses uint64
	Solves      int
	// NodeHits / NodeMisses count per-node candidate derivations replayed
	// by position vs computed; Nodes is the stored population.
	NodeHits   uint64
	NodeMisses uint64
	Nodes      int
	// EpochResets counts wholesale invalidations after a lexicon mutation.
	EpochResets uint64
}

// Warm is the cross-run cache bundle a long-lived handle (qilabel's
// Integrator) owns: a bounded intern table of label analyses and a sharded
// shared cache of Relate verdicts, both keyed under one lexicon epoch.
//
// Every cached fact is a pure function of (label(s), lexicon), so reuse can
// never change an outcome, only skip recomputing it — warm runs stay
// byte-identical to cold ones. Staleness is handled by epoch: the Warm
// snapshots lexicon.Generation and drops everything when it moves.
//
// Bounding uses two generations (a hand-rolled SIEVE/CLOCK relative):
// inserts land in the current generation; when it reaches half the cap the
// current generation becomes the old one and a fresh map starts; hits in
// the old generation promote back. Entries referenced at least once per
// rotation period therefore survive indefinitely, and the total population
// never exceeds the cap.
//
// A Warm is safe for concurrent use. The per-run hot path stays lock-free:
// workers consult their private Semantics overlay first and touch the
// shared shards only on overlay misses (at most once per distinct label
// pair per worker per run).
type Warm struct {
	lex        *lexicon.Lexicon
	labelCap   int
	verdictCap int // per shard

	gen atomic.Uint64 // lexicon generation the contents belong to

	mu     sync.RWMutex // guards cur/old/nextID
	cur    map[string]warmLabel
	old    map[string]warmLabel
	nextID int32

	shards [warmShards]verdictShard

	// Solve-family caches, shared by one-shot runs and delta sessions.
	// Groups and isolated elections are keyed by content signature
	// (groupSignature / isolatedSignature): a solve is a pure function of
	// what the signature serializes and the lexicon epoch. All three also
	// hold entries under positional keys (Options.WarmKey + unit index),
	// the only keys node derivations are stored under.
	groups   warmTable[groupEntry]
	isolated warmTable[isolatedEntry]
	nodes    warmTable[nodeEntry]

	labelHits, labelMisses, labelsEvicted atomic.Uint64
	verdictHits, verdictMisses            atomic.Uint64
	epochResets                           atomic.Uint64
}

// NewWarm creates a warm cache over the given lexicon (nil: the embedded
// default). labelCap bounds interned label analyses, verdictCap the shared
// Relate verdicts; zero or negative caps select the defaults.
func NewWarm(lex *lexicon.Lexicon, labelCap, verdictCap int) *Warm {
	if lex == nil {
		lex = lexicon.Default()
	}
	if labelCap <= 0 {
		labelCap = DefaultWarmLabelCap
	}
	if labelCap < 2 {
		labelCap = 2
	}
	if verdictCap <= 0 {
		verdictCap = DefaultWarmVerdictCap
	}
	perShard := verdictCap / warmShards
	if perShard < 2 {
		perShard = 2
	}
	w := &Warm{
		lex:        lex,
		labelCap:   labelCap,
		verdictCap: perShard,
		cur:        make(map[string]warmLabel),
	}
	w.groups.cap = DefaultWarmSolveCap
	w.isolated.cap = DefaultWarmSolveCap
	w.nodes.cap = DefaultWarmSolveCap
	w.gen.Store(lex.Generation())
	return w
}

// Lexicon returns the lexicon the warm cache is bound to.
func (w *Warm) Lexicon() *lexicon.Lexicon { return w.lex }

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

// reset clears all generations and shards; callers hold w.mu.
func (w *Warm) reset(gen uint64) {
	w.cur = make(map[string]warmLabel)
	w.old = nil
	w.nextID = 0
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		sh.cur = nil
		sh.old = nil
		sh.mu.Unlock()
	}
	w.groups.reset()
	w.isolated.reset()
	w.nodes.reset()
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
		if e, ok := w.cur[l]; ok {
			a.byLabel[l] = e.lw
			a.ids[l] = e.id
			continue
		}
		if e, ok := w.old[l]; ok {
			a.byLabel[l] = e.lw
			a.ids[l] = e.id
			promote = append(promote, l)
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
		w.mu.Lock()
		for _, l := range promote {
			if e, ok := w.old[l]; ok {
				delete(w.old, l)
				w.intern(l, e)
			}
			// Missing from old: either promoted by a concurrent run (cur
			// has it) or dropped by a rotation in between; the analysis
			// and ID resolved in pass 1 stay valid for this run either way.
		}
		for i, l := range misses {
			if e, ok := w.cur[l]; ok {
				a.byLabel[l] = e.lw
				a.ids[l] = e.id
				continue
			}
			if e, ok := w.old[l]; ok {
				a.byLabel[l] = e.lw
				a.ids[l] = e.id
				continue
			}
			if w.nextID < 0 { // ID space exhausted: start a fresh epoch
				w.reset(w.gen.Load())
			}
			e := warmLabel{lw: fresh[i], id: w.nextID}
			w.nextID++
			w.intern(l, e)
			a.byLabel[l] = e.lw
			a.ids[l] = e.id
		}
		w.mu.Unlock()
	}
	return a
}

// intern inserts into the current generation, rotating generations at half
// the cap; callers hold w.mu.
func (w *Warm) intern(label string, e warmLabel) {
	if len(w.cur) >= w.labelCap/2 && w.cur[label].lw == nil {
		w.labelsEvicted.Add(uint64(len(w.old)))
		w.old = w.cur
		w.cur = make(map[string]warmLabel, w.labelCap/2)
	}
	w.cur[label] = e
}

// verdict probes the shared Relate cache. Old-generation hits promote so
// steadily referenced pairs survive rotation.
func (w *Warm) verdict(key uint64) (Rel, bool) {
	sh := &w.shards[(key^(key>>32))%warmShards]
	sh.mu.RLock()
	if r, ok := sh.cur[key]; ok {
		sh.mu.RUnlock()
		w.verdictHits.Add(1)
		return r, true
	}
	r, ok := sh.old[key]
	sh.mu.RUnlock()
	if !ok {
		w.verdictMisses.Add(1)
		return RelNone, false
	}
	w.verdictHits.Add(1)
	sh.mu.Lock()
	if _, again := sh.cur[key]; !again {
		sh.storeLocked(key, r, w)
	}
	sh.mu.Unlock()
	return r, true
}

// storeVerdict publishes a freshly computed verdict to the shared cache.
func (w *Warm) storeVerdict(key uint64, r Rel) {
	sh := &w.shards[(key^(key>>32))%warmShards]
	sh.mu.Lock()
	sh.storeLocked(key, r, w)
	sh.mu.Unlock()
}

// storeLocked inserts under the shard lock, rotating generations at half
// the per-shard cap.
func (sh *verdictShard) storeLocked(key uint64, r Rel, w *Warm) {
	if sh.cur == nil {
		sh.cur = make(map[uint64]Rel)
	}
	if len(sh.cur) >= w.verdictCap/2 {
		if _, ok := sh.cur[key]; !ok {
			sh.old = sh.cur
			sh.cur = make(map[uint64]Rel)
		}
	}
	sh.cur[key] = r
}

// Stats snapshots the cache counters and populations.
func (w *Warm) Stats() WarmStats {
	st := WarmStats{
		LabelHits:     w.labelHits.Load(),
		LabelMisses:   w.labelMisses.Load(),
		LabelsEvicted: w.labelsEvicted.Load(),
		VerdictHits:   w.verdictHits.Load(),
		VerdictMisses: w.verdictMisses.Load(),
		EpochResets:   w.epochResets.Load(),
	}
	w.mu.RLock()
	st.LabelsInterned = len(w.cur) + len(w.old)
	w.mu.RUnlock()
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.RLock()
		st.Verdicts += len(sh.cur) + len(sh.old)
		sh.mu.RUnlock()
	}
	st.SolveHits = w.groups.hits.Load() + w.isolated.hits.Load()
	st.SolveMisses = w.groups.misses.Load() + w.isolated.misses.Load()
	st.Solves = w.groups.size() + w.isolated.size()
	st.NodeHits = w.nodes.hits.Load()
	st.NodeMisses = w.nodes.misses.Load()
	st.Nodes = w.nodes.size()
	return st
}

// outcomeFor returns the stored outcome rebound to the current run's
// cluster objects: a shallow copy of the outcome with a shallow copy of
// its relation whose Clusters field points at the live group. The tuples,
// solutions and partitions are shared with the stored outcome — all
// effectively immutable after the solve.
func (e groupEntry) outcomeFor(group []*cluster.Cluster) *GroupOutcome {
	out := *e.outcome
	rel := *e.outcome.Relation
	rel.Clusters = group
	out.Relation = &rel
	return &out
}

// sigString appends a length-prefixed string, so no two distinct content
// sequences serialize to the same signature by concatenation.
func sigString(b *strings.Builder, s string) {
	b.WriteString(strconv.Itoa(len(s)))
	b.WriteByte(':')
	b.WriteString(s)
}

// sigMembers serializes a cluster's full member content: interface, label
// and instance list of every member, in member order. Cluster names are
// deliberately excluded: the matcher renumbers them globally on any source
// change, and no naming pass reads them.
func sigMembers(b *strings.Builder, c *cluster.Cluster) {
	b.WriteByte('c')
	b.WriteString(strconv.Itoa(len(c.Members)))
	for _, m := range c.Members {
		sigString(b, m.Interface)
		sigString(b, m.Leaf.Label)
		b.WriteString(strconv.Itoa(len(m.Leaf.Instances)))
		for _, v := range m.Leaf.Instances {
			sigString(b, v)
		}
	}
}

// sigOptions serializes the solver options a solve depends on.
func sigOptions(b *strings.Builder, opts SolverOptions) {
	b.WriteByte('o')
	b.WriteString(strconv.Itoa(int(opts.maxLevel())))
	if opts.UseInstances {
		b.WriteByte('i')
	} else {
		b.WriteByte('-')
	}
}

// groupSignature derives the content key of one group solve: solver
// options, each cluster's member content, and the relation's tuple
// sequence (the tuple *order* follows the global interface order, which
// member content alone does not determine). SolveGroup reads the
// relation's tuples and, through the LI 7 value-label drop, every member
// of every cluster — unlabeled members included, whose instances can
// demote a sibling's label to a data value — so the signature covers
// exactly what the solve reads. Downstream phases read a reused outcome
// only through its Solutions, Partitions and Relation.Tuples; outcomeFor
// rebinds Relation.Clusters to the live run so reports stay
// self-consistent.
func groupSignature(group []*cluster.Cluster, rel *cluster.Relation, opts SolverOptions) string {
	var b strings.Builder
	b.WriteByte('g')
	sigOptions(&b, opts)
	for _, c := range group {
		sigMembers(&b, c)
	}
	b.WriteByte('t')
	b.WriteString(strconv.Itoa(len(rel.Tuples)))
	for _, t := range rel.Tuples {
		sigString(&b, t.Interface)
		for _, l := range t.Labels {
			sigString(&b, l)
		}
	}
	return b.String()
}

// isolatedSignature derives the content key of one isolated-cluster
// election.
func isolatedSignature(c *cluster.Cluster, opts SolverOptions) string {
	var b strings.Builder
	b.WriteByte('s')
	sigOptions(&b, opts)
	sigMembers(&b, c)
	return b.String()
}

// ClusterSignature is the member-content signature of one cluster (the
// encoding the solve signatures are built from): clusters with equal
// signatures receive identical treatment from the matching and naming
// passes, whatever their names.
func ClusterSignature(c *cluster.Cluster) string {
	var b strings.Builder
	sigMembers(&b, c)
	return b.String()
}
