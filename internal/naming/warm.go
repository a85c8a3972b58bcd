package naming

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"qilabel/internal/cluster"
	"qilabel/internal/gencache"
	"qilabel/internal/lexicon"
)

// Capacity bounds of a Warm cache, each the population of both
// generations of its table (see gencache). The label cap bounds interned
// analyses (a few hundred bytes each: ~tens of MiB worst case); the
// verdict cap bounds shared Relate entries (16 bytes each: ~16 MiB worst
// case); the solve cap bounds each of the three solve-family tables (group
// solves, isolated elections, per-node candidate derivations), whose
// entries — an outcome with its solutions — are heavier.
const (
	warmLabelCap   = 1 << 16
	warmVerdictCap = 1 << 20
	warmSolveCap   = 1 << 14
)

// warmLabel is one interned label: its analysis and the stable ID Relate
// memo keys are built from. IDs are non-negative and never reused within an
// epoch (the counter survives evictions), so a verdict keyed by two IDs can
// only ever mean one label pair.
type warmLabel struct {
	lw *labelWords
	id int32
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
// Integrator) owns: a bounded intern table of label analyses, a sharded
// shared cache of Relate verdicts and the solve-family tables, all keyed
// under one lexicon epoch.
//
// Every cached fact is a pure function of (label(s), lexicon), so reuse can
// never change an outcome, only skip recomputing it — warm runs stay
// byte-identical to cold ones. Staleness is handled by epoch: the Warm
// snapshots lexicon.Generation and drops everything when it moves.
//
// Every table is bounded by gencache's two-generation policy. The intern
// table is a bare gencache.Map under the Warm's own lock, because issuing
// a label's ID and storing it must happen under one lock; the verdicts
// are a gencache.Sharded map and the solve-family tables gencache.Tables.
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

	// Solve-family caches, shared by one-shot runs and delta sessions.
	// Groups and isolated elections are keyed by content signature
	// (groupSignature / isolatedSignature): a solve is a pure function of
	// what the signature serializes and the lexicon epoch. All three also
	// hold entries under positional keys (Options.WarmKey + unit index),
	// the only keys node derivations are stored under.
	groups   *gencache.Table[string, groupEntry]
	isolated *gencache.Table[string, isolatedEntry]
	nodes    *gencache.Table[string, nodeEntry]

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
		groups:   gencache.NewTable[string, groupEntry](warmSolveCap),
		isolated: gencache.NewTable[string, isolatedEntry](warmSolveCap),
		nodes:    gencache.NewTable[string, nodeEntry](warmSolveCap),
	}
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

// reset clears every table; callers hold w.mu.
func (w *Warm) reset(gen uint64) {
	w.labels.Reset()
	w.nextID = 0
	w.verdicts.Reset()
	w.groups.Reset()
	w.isolated.Reset()
	w.nodes.Reset()
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
	g, i, n := w.groups.Stats(), w.isolated.Stats(), w.nodes.Stats()
	st.SolveHits = g.Hits + i.Hits
	st.SolveMisses = g.Misses + i.Misses
	st.Solves = g.Len + i.Len
	st.NodeHits, st.NodeMisses, st.Nodes = n.Hits, n.Misses, n.Len
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
