package qilabel

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"qilabel/internal/cluster"
	"qilabel/internal/match"
	"qilabel/internal/merge"
	"qilabel/internal/naming"
	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// Integrator is the primary entry point of the package: a validated,
// reusable handle over one configuration. Construction pays the per-config
// costs exactly once — validation, freezing the compiled form of a custom
// lexicon — and the handle owns the warm cache described below, so a warm
// Integrator does measurably less work than the equivalent sequence of
// one-shot Integrate calls.
//
// The package-level Integrate, IntegrateContext, IntegrateBatch and
// NewSession are thin wrappers constructing a throwaway Integrator per
// call; anything integrating more than once with the same options — a
// server keyed by request options, a corpus sweep, a benchmark loop —
// should hold an Integrator instead.
//
// An Integrator is immutable after construction and safe for concurrent
// use: every method may be called from any number of goroutines.
//
// An Integrator is a *warm engine*: it owns one bounded cross-run cache
// of per-label and per-pair facts (naming.Warm) — interned label analyses,
// each with the equivalence keys the matcher blocks on, and a shared
// Relate-verdict cache — shared by every Integrate call and Session on
// the handle, so integrating corpora that share vocabulary gets cheaper
// run over run. The matcher and the naming phases both read it through
// the run's analysis table. Pair evaluations, group solves, isolated
// elections and internal-node derivations are recomputed by every run
// from those facts, so no table is keyed by a field, a source or a whole
// corpus. Both tables are bounded by one two-generation eviction policy
// (internal/gencache) at fixed caps. Every cached fact is a pure function
// of the labels and the (frozen) lexicon, so warm results stay
// byte-identical to cold ones, and WarmStats reports hit rates.
type Integrator struct {
	cfg  Config
	warm *naming.Warm

	fpOnce sync.Once
	fp     string
}

// NewIntegrator validates cfg and returns a reusable handle over it. The
// Config is copied; later mutations of cfg (or of slices/funcs it points
// to) are not observed, with one deliberate exception: the Lexicon is held
// by reference and must not be mutated after construction — its compiled
// form is frozen here so no integration pays the lazy compile.
func NewIntegrator(cfg Config) (*Integrator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Lexicon != nil {
		cfg.Lexicon.Compile()
	}
	ig := &Integrator{cfg: cfg}
	if !cfg.disableWarmCache && !cfg.referenceKernels {
		ig.warm = naming.NewWarm(cfg.Lexicon)
	}
	return ig, nil
}

// newIntegratorFromOptions is the wrappers' constructor: it applies the
// options and validates, sharing NewIntegrator's definition so the two
// construction styles cannot drift.
func newIntegratorFromOptions(opts []Option) (*Integrator, error) {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return NewIntegrator(cfg)
}

// Config returns a copy of the integrator's configuration.
func (ig *Integrator) Config() Config { return ig.cfg }

// Fingerprint returns the configuration's fingerprint (Config.Fingerprint),
// computed on first use and cached for the integrator's lifetime — a
// custom lexicon is serialized and hashed once, not per request.
func (ig *Integrator) Fingerprint() string {
	ig.fpOnce.Do(func() { ig.fp = ig.cfg.Fingerprint() })
	return ig.fp
}

// CacheKey returns the deterministic key identifying an integration of the
// given sources under this configuration — identical to the package-level
// CacheKey(sources, opts...) for options building the same Config, but the
// fingerprint component comes from the integrator's cache.
func (ig *Integrator) CacheKey(sources []*Tree) string {
	return schema.CacheKey(schema.TreeHashes(sources), ig.Fingerprint())
}

// WarmStats reports the effectiveness of the integrator's cross-run warm
// cache: label-analysis interning and the shared Relate-verdict cache,
// which the matcher and the naming phases both read. All zeros when warm
// caching is disabled.
type WarmStats struct {
	// LabelHits / LabelMisses count labels resolved from the intern cache
	// vs analyzed fresh; LabelsEvicted counts analyses dropped under the
	// table's cap; LabelsInterned is the current population.
	LabelHits, LabelMisses, LabelsEvicted uint64
	LabelsInterned                        int
	// VerdictHits / VerdictMisses count shared Relate-cache probes (made
	// at most once per distinct label pair per worker per run — the
	// per-worker overlay absorbs repeats); Verdicts is the population.
	VerdictHits, VerdictMisses uint64
	Verdicts                   int
	// EpochResets counts wholesale invalidations after lexicon mutations:
	// one per Generation bump.
	EpochResets uint64
}

// WarmStats snapshots the integrator's cross-run cache counters.
func (ig *Integrator) WarmStats() WarmStats {
	if ig.warm == nil {
		return WarmStats{}
	}
	ws := ig.warm.Stats()
	return WarmStats{
		LabelHits:      ws.LabelHits,
		LabelMisses:    ws.LabelMisses,
		LabelsEvicted:  ws.LabelsEvicted,
		LabelsInterned: ws.LabelsInterned,
		VerdictHits:    ws.VerdictHits,
		VerdictMisses:  ws.VerdictMisses,
		Verdicts:       ws.Verdicts,
		EpochResets:    ws.EpochResets,
	}
}

// Integrate matches (if configured), merges and labels the given source
// interfaces. The sources are deep-copied; the inputs are never modified.
func (ig *Integrator) Integrate(sources []*Tree) (*Result, error) {
	return ig.IntegrateContext(context.Background(), sources)
}

// IntegrateContext is Integrate under a context; see the package-level
// IntegrateContext for the cancellation contract. A nil ctx is treated as
// context.Background().
func (ig *Integrator) IntegrateContext(ctx context.Context, sources []*Tree) (*Result, error) {
	return ig.integrateSources(ctx, sources, nil, true)
}

// IntegrateOwned is IntegrateContext over trees the caller hands over: it
// validates them as IntegrateContext does but does not copy them, and the
// pipeline rewrites them in place (1:m expansion, matcher clusters) and
// reorders the slice. The Result keeps them as Merge.Sources. The caller
// must not read or modify the trees or the slice afterwards, on success or
// failure. hashes, when non-nil, are the trees' canonical hashes in slice
// order (schema.TreeHashes or schema.EncodeCanonical), which the pipeline
// then need not compute; it does not modify them.
func (ig *Integrator) IntegrateOwned(ctx context.Context, trees []*Tree, hashes []string) (*Result, error) {
	if hashes != nil && len(hashes) != len(trees) {
		return nil, fmt.Errorf("qilabel: %d hashes for %d source interfaces", len(hashes), len(trees))
	}
	return ig.integrateSources(ctx, trees, hashes, false)
}

// integrateSources validates the sources, clones them unless the caller
// handed them over, and runs the pipeline on them.
func (ig *Integrator) integrateSources(ctx context.Context, sources []*Tree, hashes []string, clone bool) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(sources) == 0 {
		return nil, errors.New("qilabel: no source interfaces")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	trees := sources
	if clone {
		trees = make([]*Tree, len(sources))
	}
	for i, s := range sources {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("qilabel: source %d: %w", i, err)
		}
		if clone {
			trees[i] = s.Clone()
		}
	}
	res, _, err := ig.integrate(ctx, trees, hashes, time.Since(start))
	return res, err
}

// errNoClusters is returned when no field of any source carries a cluster
// (annotated or matcher-assigned).
var errNoClusters = errors.New("qilabel: no clusters; annotate the sources or use WithMatcher")

// integrate is the pipeline, the one path IntegrateContext and every
// Session operation take: canonical source order, 1:m expansion, matching
// (if configured), merging and naming. It owns trees: at least one
// validated tree the caller will not touch again. hashes are their
// canonical hashes in slice order, or nil to compute them here. validated
// is the time the caller spent validating (and cloning) them; it is
// reported as the "validate" stage, and each later stage is timed from the
// previous stage event. It returns the Result and the number of candidate
// pairs the matcher evaluated in this run.
func (ig *Integrator) integrate(ctx context.Context, trees []*Tree, hashes []string, validated time.Duration) (*Result, int, error) {
	var start time.Time
	stageDone := func(stage string, units int, took time.Duration) {
		if ig.cfg.Observer != nil {
			ig.cfg.Observer(StageEvent{Stage: stage, Units: units, Duration: took})
		}
		start = time.Now()
	}
	stageDone("validate", len(trees), validated)

	canonicalizeSourceOrder(trees, hashes)
	cluster.ExpandOneToMany(trees)

	// One label-analysis table serves the whole run: the matcher and the
	// group relations read trimmed leaf labels, the other naming passes
	// raw node labels (naming.SourceLabels collects both). The table is a
	// pure accelerator (labels outside it fall back to per-worker caches),
	// so sharing it cannot change output — the reference kernels skip it
	// entirely to stay a true baseline. Through the warm cache, the table
	// skips re-analyzing labels an earlier run already saw.
	var analysis *naming.Analysis
	if !ig.cfg.referenceKernels {
		labels := naming.SourceLabels(trees)
		if ig.warm != nil {
			analysis = ig.warm.Analysis(labels)
		} else {
			analysis = naming.PrecomputeAnalysis(ig.cfg.Lexicon, labels)
		}
	}

	pairs := 0
	if ig.cfg.UseMatcher {
		// After expansion, so matcher-assigned clusters replace every
		// annotation uniformly (including the expanded 1:m children).
		n, err := match.AssignContext(ctx, trees, match.Options{
			Lexicon:         ig.cfg.Lexicon,
			Parallelism:     ig.cfg.Parallelism,
			DisableBlocking: ig.cfg.referenceKernels,
			Analysis:        analysis,
			Pairs:           &pairs,
		})
		if err != nil {
			return nil, 0, err
		}
		stageDone("match", n, time.Since(start))
	}
	m, err := cluster.FromTrees(trees)
	if err != nil {
		return nil, 0, err
	}
	if ig.cfg.MinFrequency > 1 {
		m = pruneRareClusters(trees, m, ig.cfg.MinFrequency)
	}
	if len(m.Clusters) == 0 {
		return nil, 0, errNoClusters
	}
	mr, err := merge.MergeContext(ctx, trees, m)
	if err != nil {
		return nil, 0, err
	}
	stageDone("merge", len(m.Clusters), time.Since(start))

	nr, err := naming.RunContext(ctx, mr, naming.Options{
		Lexicon:          ig.cfg.Lexicon,
		MaxLevel:         naming.Level(ig.cfg.MaxLevel),
		DisableInstances: ig.cfg.DisableInstances,
		Parallelism:      ig.cfg.Parallelism,
		DisableMemo:      ig.cfg.referenceKernels,
		Analysis:         analysis,
	})
	if err != nil {
		return nil, 0, err
	}
	stageDone("naming", len(nr.Groups)+len(nr.Nodes), time.Since(start))

	res := &Result{
		Tree:        mr.Tree,
		Class:       nr.Class,
		Labels:      make(map[string]string, len(m.Clusters)),
		Mapping:     m,
		Merge:       mr,
		Naming:      nr,
		lex:         ig.cfg.Lexicon,
		translation: new(lazyIndex),
	}
	for _, c := range m.Clusters {
		if leaf := mr.LeafOf[c.Name]; leaf != nil {
			res.Labels[c.Name] = leaf.Label
		}
	}
	return res, pairs, nil
}

// canonicalizeSourceOrder sorts the working copies of the sources by their
// canonical tree hash. CacheKey identifies the source *set* independent of
// listing order, so the pipeline must produce one result per set: without
// this sort, position-sensitive tie-breaks (matcher cluster numbering,
// sibling placement, candidate election) let a cached result differ from a
// fresh computation over a permuted listing of the same pool. Structurally
// identical trees compare equal and keep their relative order, which is
// harmless — they are interchangeable everywhere downstream. hashes are
// the trees' canonical hashes (nil: computed here); the sort permutes a
// copy.
func canonicalizeSourceOrder(trees []*Tree, hashes []string) {
	if hashes == nil {
		hashes = schema.TreeHashes(trees)
	} else {
		hashes = slices.Clone(hashes)
	}
	sort.Stable(byHash{trees, hashes})
}

// byHash sorts trees by their canonical hashes, keeping both aligned.
type byHash struct {
	trees  []*Tree
	hashes []string
}

func (s byHash) Len() int           { return len(s.trees) }
func (s byHash) Less(i, j int) bool { return s.hashes[i] < s.hashes[j] }
func (s byHash) Swap(i, j int) {
	s.trees[i], s.trees[j] = s.trees[j], s.trees[i]
	s.hashes[i], s.hashes[j] = s.hashes[j], s.hashes[i]
}

// pruneRareClusters rebuilds the mapping without the clusters appearing on
// fewer than minFreq interfaces and clears their leaves' annotations so
// the merge ignores those fields.
func pruneRareClusters(trees []*Tree, m *cluster.Mapping, minFreq int) *cluster.Mapping {
	drop := make(map[string]bool)
	var keep []*cluster.Cluster
	for _, c := range m.Clusters {
		if c.Frequency() < minFreq {
			drop[c.Name] = true
			continue
		}
		keep = append(keep, c)
	}
	if len(drop) == 0 {
		return m
	}
	for _, t := range trees {
		for _, leaf := range t.Leaves() {
			if drop[leaf.Cluster] {
				leaf.Cluster = ""
			}
		}
	}
	return cluster.NewMapping(keep...)
}

// IntegrateBatch integrates many source-tree sets; see the package-level
// IntegrateBatch for the deduplication and cancellation contract. The sets
// share this integrator's caches, and every set's Key comes from the
// cached fingerprint.
func (ig *Integrator) IntegrateBatch(ctx context.Context, sets [][]*Tree, parallelism int) []BatchItem {
	if ctx == nil {
		ctx = context.Background()
	}
	items := make([]BatchItem, len(sets))
	firstOf := make(map[string]int, len(sets))
	var distinct []int
	for i, set := range sets {
		items[i] = BatchItem{Index: i, Key: ig.CacheKey(set)}
		if _, dup := firstOf[items[i].Key]; dup {
			items[i].Shared = true
		} else {
			firstOf[items[i].Key] = i
			distinct = append(distinct, i)
		}
	}
	_ = pool.ForEach(ctx, parallelism, len(distinct), func(_, k int) {
		i := distinct[k]
		items[i].Result, items[i].Err = ig.IntegrateContext(ctx, sets[i])
	})
	for i := range items {
		if items[i].Shared {
			src := &items[firstOf[items[i].Key]]
			items[i].Result, items[i].Err = src.Result, src.Err
		}
		if items[i].Result == nil && items[i].Err == nil {
			// The fan-out was canceled before this set ran.
			items[i].Err = ctx.Err()
		}
	}
	return items
}

// NewSession creates an empty incremental integration session over this
// configuration. Sessions created from one Integrator share its cached
// fingerprint and warm cache — the only layer through which a session
// reuses earlier work, its own or that of any other run on this handle:
// label analyses with their equivalence keys and Relate verdicts, not
// pair evaluations or group solves — and its Observer, which receives
// every session operation's stages. See Session for the delta-equivalence
// contract.
func (ig *Integrator) NewSession() *Session {
	return &Session{ig: ig}
}
