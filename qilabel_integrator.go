package qilabel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qilabel/internal/delta"
	"qilabel/internal/gencache"
	"qilabel/internal/match"
	"qilabel/internal/naming"
	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// Integrator is the primary entry point of the package: a validated,
// reusable handle over one configuration. Construction pays the per-config
// costs exactly once — validation, freezing the compiled form of a custom
// lexicon — and the handle owns the warm caches described below, so a warm
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
// An Integrator is a *warm engine*: it owns bounded cross-run caches —
// interned label analyses, a shared Relate-verdict cache, matcher block
// keys and pair verdicts, naming solves, and a per-source label memo keyed
// by canonical tree hash — shared by every Integrate call and Session on
// the handle, so integrating corpora that share vocabulary gets cheaper
// run over run. Every table is bounded by one two-generation eviction
// policy (internal/gencache) at fixed caps. Every cached fact is a pure
// function of the inputs and the (frozen) lexicon, so warm results stay
// byte-identical to cold ones, and WarmStats reports hit rates.
type Integrator struct {
	cfg       Config
	warm      *naming.Warm
	matchWarm *match.Warm
	sources   *gencache.Table[string, []string]

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
		if cfg.UseMatcher {
			ig.matchWarm = match.NewWarm(cfg.Lexicon)
		}
		ig.sources = gencache.NewTable[string, []string](delta.SourceLabelCap)
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

// deltaConfig mirrors the configuration into the delta engine, threading
// the integrator's warm caches and cached fingerprint along.
func (ig *Integrator) deltaConfig() delta.Config {
	dc := ig.cfg.deltaConfig()
	dc.Fingerprint = ig.Fingerprint()
	dc.Warm = ig.warm
	dc.MatchWarm = ig.matchWarm
	dc.SourceLabels = ig.sources
	return dc
}

// WarmStats reports the effectiveness of the integrator's cross-run warm
// caches: label-analysis interning, the shared Relate-verdict cache, and
// the per-source label memo. All zeros when warm caching is disabled.
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
	// SolveHits / SolveMisses count naming group solves and isolated
	// elections answered from the warm cache vs computed; NodeHits /
	// NodeMisses the per-node candidate derivations, which replay only
	// when a corpus repeats exactly. Solves and Nodes are the stored
	// populations.
	SolveHits, SolveMisses uint64
	Solves                 int
	NodeHits, NodeMisses   uint64
	Nodes                  int
	// MatchKeyHits / MatchKeyMisses count matcher field contents whose
	// block keys came from the warm cache; MatchPairHits / MatchPairMisses
	// count candidate pairs answered without a similarity evaluation.
	MatchKeyHits, MatchKeyMisses   uint64
	MatchPairHits, MatchPairMisses uint64
	MatchKeys, MatchPairs          int
	// SourceHits / SourceMisses count source trees whose label lists came
	// from the per-source memo vs a fresh walk; SourcesMemoized is the
	// population.
	SourceHits, SourceMisses uint64
	SourcesMemoized          int
	// EpochResets counts wholesale invalidations after lexicon mutations:
	// one per Generation bump, though every warm layer resets on it.
	EpochResets uint64
}

// WarmStats snapshots the integrator's cross-run cache counters.
func (ig *Integrator) WarmStats() WarmStats {
	var st WarmStats
	if ig.warm != nil {
		ws := ig.warm.Stats()
		st.LabelHits, st.LabelMisses, st.LabelsEvicted = ws.LabelHits, ws.LabelMisses, ws.LabelsEvicted
		st.LabelsInterned = ws.LabelsInterned
		st.VerdictHits, st.VerdictMisses, st.Verdicts = ws.VerdictHits, ws.VerdictMisses, ws.Verdicts
		st.SolveHits, st.SolveMisses, st.Solves = ws.SolveHits, ws.SolveMisses, ws.Solves
		st.NodeHits, st.NodeMisses, st.Nodes = ws.NodeHits, ws.NodeMisses, ws.Nodes
		st.EpochResets = ws.EpochResets
	}
	if ig.matchWarm != nil {
		ms := ig.matchWarm.Stats()
		st.MatchKeyHits, st.MatchKeyMisses = ms.KeyHits, ms.KeyMisses
		st.MatchPairHits, st.MatchPairMisses = ms.PairHits, ms.PairMisses
		st.MatchKeys, st.MatchPairs = ms.Keys, ms.Pairs
		// The matcher's Warm resets on the same Generation bumps the
		// naming Warm counted above.
	}
	if ig.sources != nil {
		ss := ig.sources.Stats()
		st.SourceHits, st.SourceMisses, st.SourcesMemoized = ss.Hits, ss.Misses, ss.Len
	}
	return st
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
	if ctx == nil {
		ctx = context.Background()
	}
	if len(sources) == 0 {
		return nil, errors.New("qilabel: no source interfaces")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	stageStart := time.Now()
	stageDone := func(stage string, units int) {
		if ig.cfg.Observer != nil {
			ig.cfg.Observer(StageEvent{Stage: stage, Units: units, Duration: time.Since(stageStart)})
		}
		stageStart = time.Now()
	}

	trees := make([]*schema.Tree, len(sources))
	for i, s := range sources {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("qilabel: source %d: %w", i, err)
		}
		trees[i] = s.Clone()
	}
	stageDone("validate", len(sources))

	// The pipeline core (canonical ordering, 1:m expansion, matching,
	// merging, naming) lives in internal/delta, shared with the
	// incremental Session — one definition, so the one-shot and delta
	// paths cannot drift apart.
	out, err := delta.Run(ctx, trees, ig.deltaConfig(), stageDone)
	if err != nil {
		return nil, err
	}
	return resultFromOutcome(out, ig.cfg.Lexicon), nil
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
// fingerprint and warm caches — the only layer through which a session
// reuses earlier work, its own or that of any other run on this handle;
// see Session for the delta-equivalence contract.
func (ig *Integrator) NewSession() *Session {
	return &Session{inner: delta.NewSession(ig.deltaConfig()), ig: ig}
}
