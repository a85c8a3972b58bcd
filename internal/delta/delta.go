// Package delta is the incremental integration engine: the pipeline core
// shared by the one-shot qilabel.IntegrateContext and the stateful Session
// (AddSource / RemoveSource / UpdateSource).
//
// The engine's contract is *equivalence*: a Session's outcome after any
// delta sequence is byte-identical to a from-scratch run over the same
// final source set. That holds by construction — the session runs the
// exact same pipeline (the one function below) on the same caches a
// one-shot run consults: the Integrator's warm tables (naming.Warm,
// match.Warm, the source-label table), which hold per-label and per-pair
// facts — label analyses, Relate verdicts, block keys, pair verdicts, a
// source's label list — each a pure function of the content it is keyed
// by. Every run re-derives its matching, merge and naming from those
// facts; reuse changes only what is recomputed, never what comes out. The
// delta equivalence gate in the root package pins it across the synth and
// golden corpora, serial and parallel.
package delta

import (
	"context"
	"errors"
	"sort"
	"time"

	"qilabel/internal/cluster"
	"qilabel/internal/gencache"
	"qilabel/internal/lexicon"
	"qilabel/internal/match"
	"qilabel/internal/merge"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// Config mirrors the behavior-affecting fields of qilabel.Config (the
// root package delegates here and cannot be imported back without a
// cycle). Field semantics are identical.
type Config struct {
	Lexicon          *lexicon.Lexicon
	UseMatcher       bool
	DisableInstances bool
	MaxLevel         int
	MinFrequency     int
	Parallelism      int
	// ReferenceKernels routes the run through the unoptimized reference
	// kernels: the matcher's exhaustive pairwise pass, unmemoized Relate
	// and the map-based internal-node derivation. It selects kernels only:
	// the Integrator attaches no caches to a reference configuration, and
	// the reference kernels ignore any that are attached. Test-only, like
	// qilabel's unexported twin.
	ReferenceKernels bool
	// Warm, when non-nil, is the cross-run warm cache (interned label
	// analyses, shared Relate verdicts) the run's analysis table is built
	// through. Pure accelerator with byte-identical output; nil degrades
	// to a per-run table.
	Warm *naming.Warm
	// MatchWarm, when non-nil, caches the matcher's block keys and pair
	// verdicts across runs by field content. Pure accelerator; nil
	// degrades to per-run derivation.
	MatchWarm *match.Warm
	// SourceLabels, when non-nil, memoizes each source tree's distinct
	// label list by canonical hash so re-submitted sources skip the
	// label-collection walk (see sourceLabels). Pure accelerator; nil
	// degrades to a fresh walk. A table must only ever see one UseMatcher
	// setting, because the list depends on it: the Integrator holds one
	// per fixed configuration.
	SourceLabels *gencache.Table[string, []string]
}

// Outcome is one pipeline run's full output: the working trees (clones,
// canonically ordered, 1:m-expanded, matcher-annotated), the cluster
// mapping, and the merge and naming results. Pairs counts the matcher
// pair verdicts this run answered from the warm cache versus evaluated.
type Outcome struct {
	Trees   []*schema.Tree
	Mapping *cluster.Mapping
	Merge   *merge.Result
	Naming  *naming.Result
	Pairs   match.PairCounts
}

// ErrNoSources is returned by a run over an empty source set; the string
// matches qilabel's historical error.
var ErrNoSources = errors.New("qilabel: no source interfaces")

// ErrNoClusters is returned when no field of any source carries a cluster
// (annotated or matcher-assigned); the string matches qilabel's
// historical error.
var ErrNoClusters = errors.New("qilabel: no clusters; annotate the sources or use WithMatcher")

// Run executes the integration pipeline over the given trees: canonical
// ordering, 1:m expansion, matching (if configured), merging and naming.
// Run owns the trees — callers pass clones they will not reuse. The
// observe hook, when non-nil, receives one call per completed stage
// ("match", "merge", "naming") with the stage's unit count; the caller
// tracks durations.
func Run(ctx context.Context, trees []*schema.Tree, cfg Config, observe func(stage string, units int)) (*Outcome, error) {
	if len(trees) == 0 {
		return nil, ErrNoSources
	}
	if observe == nil {
		observe = func(string, int) {}
	}
	hashes := canonicalizeSourceOrderHashed(trees)
	cluster.ExpandOneToMany(trees)
	out := &Outcome{Trees: trees}

	// One label-analysis table serves the whole run: the matcher's pairwise
	// pass reads trimmed leaf labels, the naming phases read raw node
	// labels, and both previously built separate tables over mostly the
	// same strings. The table is a pure accelerator (labels outside it fall
	// back to per-worker caches), so sharing it cannot change output — the
	// reference kernels skip it entirely to stay a true baseline. With a
	// warm handle, the table is interned through the cross-run caches: the
	// source-label memo skips re-collecting labels of already-seen trees
	// (keyed by the pre-expansion canonical hash, which determines the
	// expanded labels), and the Warm cache skips re-analyzing already-seen
	// labels.
	var analysis *naming.Analysis
	if !cfg.ReferenceKernels {
		var labels []string
		for i, t := range trees {
			labels = append(labels, sourceLabels(cfg.SourceLabels, t, hashes[i], cfg.UseMatcher)...)
		}
		if cfg.Warm != nil {
			analysis = cfg.Warm.Analysis(labels)
		} else {
			analysis = naming.PrecomputeAnalysis(cfg.Lexicon, labels)
		}
	}

	if cfg.UseMatcher {
		// After expansion, so matcher-assigned clusters replace every
		// annotation uniformly (including the expanded 1:m children).
		n, err := match.AssignContext(ctx, trees, match.Options{
			Semantics:       naming.NewSemantics(cfg.Lexicon),
			Parallelism:     cfg.Parallelism,
			DisableBlocking: cfg.ReferenceKernels,
			Analysis:        analysis,
			Warm:            cfg.MatchWarm,
			Pairs:           &out.Pairs,
		})
		if err != nil {
			return nil, err
		}
		observe("match", n)
	}
	m, err := cluster.FromTrees(trees)
	if err != nil {
		return nil, err
	}
	if cfg.MinFrequency > 1 {
		m = PruneRareClusters(trees, m, cfg.MinFrequency)
	}
	if len(m.Clusters) == 0 {
		return nil, ErrNoClusters
	}
	out.Mapping = m
	out.Merge, err = merge.MergeContext(ctx, trees, m)
	if err != nil {
		return nil, err
	}
	observe("merge", len(m.Clusters))

	out.Naming, err = naming.RunContext(ctx, out.Merge, naming.Options{
		Lexicon:          cfg.Lexicon,
		MaxLevel:         naming.Level(cfg.MaxLevel),
		DisableInstances: cfg.DisableInstances,
		Parallelism:      cfg.Parallelism,
		DisableMemo:      cfg.ReferenceKernels,
		Analysis:         analysis,
	})
	if err != nil {
		return nil, err
	}
	observe("naming", len(out.Naming.Groups)+len(out.Naming.Nodes))
	return out, nil
}

// CanonicalizeSourceOrder sorts the working copies of the sources by their
// canonical tree hash. CacheKey identifies the source *set* independent of
// listing order, so the pipeline must produce one result per set: without
// this sort, position-sensitive tie-breaks (matcher cluster numbering,
// sibling placement, candidate election) let a cached result differ from a
// fresh computation over a permuted listing of the same pool. Structurally
// identical trees compare equal and keep their relative order, which is
// harmless — they are interchangeable everywhere downstream.
func CanonicalizeSourceOrder(trees []*schema.Tree) {
	canonicalizeSourceOrderHashed(trees)
}

// canonicalizeSourceOrderHashed is CanonicalizeSourceOrder returning the
// canonical hashes aligned with the sorted trees, so Run can key per-source
// caches without hashing twice.
func canonicalizeSourceOrderHashed(trees []*schema.Tree) []string {
	hashes := schema.TreeHashes(trees)
	sort.Stable(byHash{trees, hashes})
	return hashes
}

// byHash sorts trees by their canonical hashes, keeping both aligned.
type byHash struct {
	trees  []*schema.Tree
	hashes []string
}

func (s byHash) Len() int           { return len(s.trees) }
func (s byHash) Less(i, j int) bool { return s.hashes[i] < s.hashes[j] }
func (s byHash) Swap(i, j int) {
	s.trees[i], s.trees[j] = s.trees[j], s.trees[i]
	s.hashes[i], s.hashes[j] = s.hashes[j], s.hashes[i]
}

// PruneRareClusters rebuilds the mapping without the clusters appearing on
// fewer than minFreq interfaces and clears their leaves' annotations so
// the merge ignores those fields.
func PruneRareClusters(trees []*schema.Tree, m *cluster.Mapping, minFreq int) *cluster.Mapping {
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

// stamp is a tiny helper session ops use to time a run.
func stamp() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}
