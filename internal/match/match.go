// Package match is the interface-matching substrate ([10, 24, 23] in the
// paper). The naming paper takes the clusters of semantically equivalent
// fields as input; this package recomputes them from labels and instances
// so the pipeline also runs on foreign interfaces that carry no
// ground-truth cluster annotations.
//
// The matcher is deliberately simple — a transitive-closure matcher over
// two field-similarity signals:
//
//   - lexical: the fields' labels are string-equal, equal or synonyms
//     under Definition 1 (via the same Semantics the naming algorithm
//     uses);
//   - instance overlap: the fields' predefined domains share a majority
//     of their values (the WebIQ-style signal, usable even for unlabeled
//     fields).
//
// The pairwise pass is blocked: every field is assigned a set of block
// keys derived from the same normalizations the two signals compare
// (display form, content-word stems and base forms, synset IDs, instance
// values), and only pairs sharing at least one key reach the full
// similarity evaluation. Each key family mirrors one way a pair can
// match, so blocking prunes only pairs that could never match and the
// output is identical to the exhaustive O(F²) pass (pinned by
// TestBlockedMatchesUnblocked).
//
// The evaluation benches use ground-truth clusters, as the paper does, so
// matcher noise cannot pollute the labeling results; the matcher exists
// for end-to-end runs over raw input.
package match

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"unicode"

	"qilabel/internal/naming"
	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// defaultMinOverlap is the instance-overlap threshold a zero
// Options.MinInstanceOverlap selects, and the only one a Warm serves.
const defaultMinOverlap = 0.5

// Options tune the matcher.
type Options struct {
	// Semantics evaluates label relationships (nil: default lexicon).
	Semantics *naming.Semantics
	// MinInstanceOverlap is the Jaccard threshold for the instance signal
	// (default 0.5).
	MinInstanceOverlap float64
	// ClusterPrefix prefixes generated cluster names (default "m").
	ClusterPrefix string
	// Parallelism bounds the workers of the pairwise similarity pass, the
	// matcher's O(F²) hot loop (0: GOMAXPROCS, 1: serial). The pass is
	// deterministic at any setting: matched pairs are collected per row and
	// union order never changes the connected components.
	Parallelism int
	// DisableBlocking forces the reference pass: every pair evaluated
	// exhaustively instead of through the block-key candidate index, on an
	// unmemoized Semantics over the same lexicon. The output is identical
	// either way; the exhaustive pass exists as the reference for
	// equivalence tests and benchmarks.
	DisableBlocking bool
	// Analysis, when non-nil, supplies a precomputed label-analysis table
	// (built over the same lexicon as Semantics) that already covers the
	// trees' trimmed field labels, so the matcher skips its own
	// PrecomputeAnalysis pass. Labels missing from the table fall back to
	// per-worker caches — a pure accelerator, never an output change.
	// Ignored under DisableBlocking (the reference pass stays cold).
	Analysis *naming.Analysis
	// Warm, when non-nil, caches block keys and pair verdicts across runs
	// by field content (the Integrator owns one per configuration). Both
	// facts are pure functions of (content, lexicon, threshold), so the
	// assignment is identical with or without it. Ignored under
	// DisableBlocking, for a lexicon other than the Warm's, or for a
	// threshold other than the default.
	Warm *Warm
	// WarmKey, when non-empty alongside Warm, is the caller's fingerprint
	// of the exact canonical source content plus every assignment-affecting
	// option. Because the whole pipeline is a pure function of that content
	// (the invariant IntegrateBatch's result sharing already relies on), an
	// identical key means an identical assignment: the warm cache replays
	// the leaf->cluster vector and skips the pairwise pass entirely.
	WarmKey string
	// Pairs, when non-nil, receives this run's candidate-pair tallies.
	Pairs *PairCounts
}

// PairCounts tallies one run's candidate pairs: verdicts answered from the
// warm cache versus evaluated. A replayed whole-corpus assignment counts
// neither.
type PairCounts struct {
	Hits, Evaluated int
}

// rowBuf is one worker's reusable state: the candidate-index buffer the
// blocked pass fills once per row, and the seen-stamp array that
// deduplicates postings in O(1) per posting (stamp[j] == epoch marks j as
// already collected for the current row, so no per-row clearing).
type rowBuf struct {
	cand  []int
	stamp []int32
	epoch int32
}

// beginRow prepares the buffer for one row over n fields and returns the
// row's stamp epoch.
func (b *rowBuf) beginRow(n int) int32 {
	if len(b.stamp) < n {
		b.stamp = make([]int32, n)
		b.epoch = 0
	}
	b.epoch++
	if b.epoch == 0 { // wrapped: stamps from older epochs could collide
		for i := range b.stamp {
			b.stamp[i] = 0
		}
		b.epoch = 1
	}
	return b.epoch
}

// fieldInfo is one leaf of the source trees with the normalizations the
// similarity signals need, computed once instead of per pair.
type fieldInfo struct {
	leaf  *schema.Node
	iface string
	label string          // trimmed label ("" when unusable)
	inst  map[string]bool // case-folded, trimmed instance values
}

// Assign computes clusters for the leaves of the given trees and writes
// the cluster names onto the leaves in place (overwriting any existing
// annotation). It returns the number of clusters formed. Leaves with
// neither a usable label nor instances form singleton clusters.
func Assign(trees []*schema.Tree, opts Options) int {
	n, _ := AssignContext(context.Background(), trees, opts)
	return n
}

// AssignContext is Assign with cooperative cancellation: the pairwise
// similarity pass checks ctx between rows and returns ctx.Err() once the
// context is done, leaving the trees' annotations untouched.
func AssignContext(ctx context.Context, trees []*schema.Tree, opts Options) (int, error) {
	sem := opts.Semantics
	if sem == nil {
		sem = naming.NewSemantics(nil)
	}
	if opts.DisableBlocking {
		sem = naming.NewSemanticsUnmemoized(sem.Lexicon())
	}
	if opts.MinInstanceOverlap == 0 {
		opts.MinInstanceOverlap = defaultMinOverlap
	}
	prefix := opts.ClusterPrefix
	if prefix == "" {
		prefix = "m"
	}

	// The cross-run warm cache applies only to the blocked pass (the
	// reference pass stays cold) and only to its own lexicon at the
	// default threshold — a verdict is a pure function of both.
	warm := opts.Warm
	if opts.DisableBlocking || warm == nil ||
		warm.lex != sem.Lexicon() || opts.MinInstanceOverlap != defaultMinOverlap {
		warm = nil
	}
	if warm != nil {
		warm.ensureEpoch()
	}

	// Whole-corpus fast path: a remembered corpus fingerprint replays the
	// exact leaf->cluster vector (leaves enumerate in the same canonical
	// order both times) without normalizing a single field.
	akey := ""
	if warm != nil && opts.WarmKey != "" {
		akey = opts.WarmKey + "|a|" + prefix
		if e, ok := warm.assigns.Get(akey); ok {
			if applyAssignment(trees, e.names) {
				return e.n, nil
			}
		}
	}

	fields := collectFields(trees)

	var ids []int32 // stable warm content IDs, aligned with fields
	if warm != nil {
		ids = make([]int32, len(fields))
	}

	// The shared analysis table normalizes every field label once; each
	// worker's Semantics reads it instead of re-analyzing into a cold
	// cache. The reference pass skips it (and the block-key index) so it
	// stays a true pre-optimization baseline.
	var analysis *naming.Analysis
	var keys [][]string
	var index map[string][]int
	if !opts.DisableBlocking {
		analysis = opts.Analysis
		if analysis == nil {
			labels := make([]string, 0, len(fields))
			for i := range fields {
				if fields[i].label != "" {
					labels = append(labels, fields[i].label)
				}
			}
			analysis = naming.PrecomputeAnalysis(sem.Lexicon(), labels)
		}

		// Block-key index: key -> fields carrying it, in index order. With
		// a warm cache, contents seen by an earlier run skip the derivation.
		keySem := analysis.Semantics()
		keys = make([][]string, len(fields))
		index = make(map[string][]int)
		for i := range fields {
			if warm != nil {
				ck := contentKey(&fields[i])
				ks, id, ok := warm.fieldKeys(ck)
				if !ok {
					ks = blockKeys(keySem, &fields[i], opts.MinInstanceOverlap)
					id = warm.internKeys(ck, ks)
				}
				keys[i], ids[i] = ks, id
			} else {
				keys[i] = blockKeys(keySem, &fields[i], opts.MinInstanceOverlap)
			}
			for _, k := range keys[i] {
				index[k] = append(index[k], i)
			}
		}
	}

	// Pairwise similarity, one row per field: row i records every j > i it
	// matches. Rows are independent, so they fan out over the worker pool;
	// each worker carries its own Semantics (the Relate memo is not
	// concurrency-safe) over the shared analysis table, which cannot change
	// any verdict — only its speed.
	workers := pool.Workers(opts.Parallelism)
	sems := make([]*naming.Semantics, workers)
	sems[0] = sem // the serial path reuses the caller's cache
	rows := make([]*rowBuf, workers)
	tally := make([]PairCounts, workers)
	matches := make([][]int, len(fields))
	err := pool.ForEach(ctx, workers, len(fields), func(w, i int) {
		if sems[w] == nil {
			if analysis != nil {
				sems[w] = analysis.Semantics()
			} else {
				sems[w] = naming.NewSemanticsUnmemoized(sem.Lexicon())
			}
		}
		fi := &fields[i]
		// Pair tallies go to the worker's slot once per row: the slots
		// share cache lines, so per-pair increments would contend.
		if opts.DisableBlocking {
			evaluated := 0
			for j := i + 1; j < len(fields); j++ {
				// Fields of the same interface never match each other.
				if fields[j].iface == fi.iface {
					continue
				}
				evaluated++
				if matchFields(sems[w], fi, &fields[j], opts.MinInstanceOverlap) {
					matches[i] = append(matches[i], j)
				}
			}
			tally[w].Evaluated += evaluated
			return
		}
		// Candidates: fields after i sharing at least one block key,
		// deduplicated by seen-stamps. The candidate *set* is exactly what
		// the exhaustive scan evaluates; its order follows the posting
		// lists instead of ascending j, which cannot change the outcome —
		// verdicts are pure, and the union-find components (hence the
		// cluster assignment) are invariant to the union order. The buffer
		// is per-worker and kept for every row the worker takes.
		if rows[w] == nil {
			rows[w] = &rowBuf{}
		}
		rb := rows[w]
		epoch := rb.beginRow(len(fields))
		cand := rb.cand[:0]
		for _, k := range keys[i] {
			for _, j := range index[k] {
				if j > i && fields[j].iface != fi.iface && rb.stamp[j] != epoch {
					rb.stamp[j] = epoch
					cand = append(cand, j)
				}
			}
		}
		hits := 0
		for _, j := range cand {
			var matched bool
			if warm != nil {
				key := pairIDKey(ids[i], ids[j])
				v, ok := warm.pairs.Get(key)
				if ok {
					hits++
				} else {
					v = matchFields(sems[w], fi, &fields[j], opts.MinInstanceOverlap)
					warm.pairs.Put(key, v)
				}
				matched = v
			} else {
				matched = matchFields(sems[w], fi, &fields[j], opts.MinInstanceOverlap)
			}
			if matched {
				matches[i] = append(matches[i], j)
			}
		}
		rows[w].cand = cand
		tally[w].Hits += hits
		tally[w].Evaluated += len(cand) - hits
	})
	if err != nil {
		return 0, err
	}
	if opts.Pairs != nil {
		for _, t := range tally {
			opts.Pairs.Hits += t.Hits
			opts.Pairs.Evaluated += t.Evaluated
		}
	}
	n := clusterize(fields, matches, prefix)
	if akey != "" {
		names := make([]string, len(fields))
		for i := range fields {
			names[i] = fields[i].leaf.Cluster
		}
		warm.assigns.Put(akey, assignEntry{names: names, n: n})
	}
	return n, nil
}

// applyAssignment writes a cached leaf->cluster vector onto the trees'
// leaves in the same enumeration order collectFields flattens them. A
// length mismatch (a colliding key, which a sha256 corpus fingerprint makes
// vanishingly unlikely) reports false and writes nothing.
func applyAssignment(trees []*schema.Tree, names []string) bool {
	total := 0
	for _, t := range trees {
		total += len(t.Leaves())
	}
	if total != len(names) {
		return false
	}
	idx := 0
	for _, t := range trees {
		for _, leaf := range t.Leaves() {
			leaf.Cluster = names[idx]
			idx++
		}
	}
	return true
}

// collectFields flattens the trees' leaves into fieldInfos with the
// normalizations the similarity signals need, computed once instead of per
// pair.
func collectFields(trees []*schema.Tree) []fieldInfo {
	var fields []fieldInfo
	for _, t := range trees {
		for _, leaf := range t.Leaves() {
			f := fieldInfo{leaf: leaf, iface: t.Interface,
				label: strings.TrimSpace(leaf.Label)}
			if len(leaf.Instances) > 0 {
				f.inst = make(map[string]bool, len(leaf.Instances))
				for _, v := range leaf.Instances {
					f.inst[strings.ToLower(strings.TrimSpace(v))] = true
				}
			}
			fields = append(fields, f)
		}
	}
	return fields
}

// clusterize turns the pairwise match lists into cluster annotations on
// the leaves and returns the number of clusters formed.
func clusterize(fields []fieldInfo, matches [][]int, prefix string) int {
	parent := make([]int, len(fields))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) { parent[find(b)] = find(a) }

	for i, js := range matches {
		for _, j := range js {
			union(i, j)
		}
	}

	// A cluster may not contain two fields of one interface. Transitive
	// closure can still glue them together (both date groups label a field
	// "Month", chained through other interfaces), so components are split
	// by per-interface occurrence: the k-th same-component field of an
	// interface goes into the component's k-th cluster. The k-th
	// occurrences across interfaces land together — exactly how paired
	// concepts (departure month / return month) separate.
	type slot struct {
		root int
		occ  int
	}
	occIndex := make([]int, len(fields))
	perIface := make(map[string]map[int]int) // interface -> component -> count
	for i, f := range fields {
		r := find(i)
		m := perIface[f.iface]
		if m == nil {
			m = make(map[int]int)
			perIface[f.iface] = m
		}
		occIndex[i] = m[r]
		m[r]++
	}
	names := make(map[slot]string)
	next := 1
	for i, f := range fields {
		key := slot{find(i), occIndex[i]}
		name, ok := names[key]
		if !ok {
			name = fmt.Sprintf("%s_%03d", prefix, next)
			next++
			names[key] = name
		}
		f.leaf.Cluster = name
	}
	return next - 1
}

// blockKeys derives the block keys of a field. Each key family mirrors one
// way matchFields can fire, so two fields that match always share a key:
//
//   - "d:" display form — the string-equal relation compares display forms
//     case-insensitively, so string-equal fields share the folded form;
//   - "s:" stem and "b:" base of every content word — the equal and synonym
//     relations align every word of one label with a word of the other, and
//     an aligned pair agrees on stem, base, or synset, so the first word of
//     either label puts a shared key on both fields;
//   - "y:" synset IDs of every content word — the synonymy half of that
//     alignment: two bases are synonyms exactly when their synset-ID sets
//     intersect (pinned by lexicon's TestSynsetIDs);
//   - "v:" instance values — Jaccard overlap above a positive threshold
//     needs at least one shared normalized value;
//   - "i:*" — with a non-positive threshold any two instance-carrying
//     fields pass the overlap test, so they all share the universal key.
func blockKeys(sem *naming.Semantics, f *fieldInfo, minOverlap float64) []string {
	var keys []string
	if f.label != "" {
		if d := sem.DisplayForm(f.label); d != "" {
			keys = append(keys, "d:"+foldKey(d))
		}
		for _, w := range sem.LabelWords(f.label) {
			keys = append(keys, "s:"+w.Stem, "b:"+w.Base)
			for _, id := range sem.Lexicon().SynsetIDs(w.Base) {
				keys = append(keys, "y:"+strconv.Itoa(id))
			}
		}
	}
	if len(f.inst) > 0 {
		if minOverlap <= 0 {
			keys = append(keys, "i:*")
		} else {
			for v := range f.inst {
				keys = append(keys, "v:"+v)
			}
		}
	}
	sort.Strings(keys)
	return dedupSorted(keys)
}

// foldKey maps every rune to the smallest member of its case-folding orbit,
// so two strings are strings.EqualFold exactly when their foldKeys are
// byte-equal (ToLower is not enough: 'σ' and 'ς' fold together but lower-case
// differently).
func foldKey(s string) string {
	return strings.Map(func(r rune) rune {
		least := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < least {
				least = f
			}
		}
		return least
	}, s)
}

func dedupSorted(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// matchFields evaluates the two similarity signals on precomputed fields.
func matchFields(sem *naming.Semantics, a, b *fieldInfo, minOverlap float64) bool {
	if a.label != "" && b.label != "" && sem.Equivalent(a.label, b.label) {
		return true
	}
	if len(a.inst) > 0 && len(b.inst) > 0 {
		if jaccardSets(a.inst, b.inst) >= minOverlap {
			return true
		}
	}
	return false
}

// jaccardSets computes Jaccard similarity of two pre-normalized value sets.
func jaccardSets(a, b map[string]bool) float64 {
	if len(a) > len(b) {
		a, b = b, a
	}
	inter := 0
	for v := range a {
		if b[v] {
			inter++
		}
	}
	unionSize := len(a) + len(b) - inter
	if unionSize == 0 {
		return 0
	}
	return float64(inter) / float64(unionSize)
}

// jaccard computes case-insensitive Jaccard similarity of two raw value
// slices (the normalization matchFields precomputes into fieldInfo.inst).
func jaccard(a, b []string) float64 {
	setA := make(map[string]bool, len(a))
	for _, v := range a {
		setA[strings.ToLower(strings.TrimSpace(v))] = true
	}
	setB := make(map[string]bool, len(b))
	for _, v := range b {
		setB[strings.ToLower(strings.TrimSpace(v))] = true
	}
	return jaccardSets(setA, setB)
}

// Quality compares matcher-assigned clusters against ground truth,
// returning pairwise precision and recall over same-cluster field pairs.
type Quality struct {
	Precision float64
	Recall    float64
	// Clusters is the number of clusters the matcher formed.
	Clusters int
}

// Evaluate runs the matcher on a deep copy of the annotated trees and
// scores it against their ground-truth cluster annotations.
func Evaluate(truth []*schema.Tree, opts Options) Quality {
	copies := make([]*schema.Tree, len(truth))
	for i, t := range truth {
		copies[i] = t.Clone()
	}
	n := Assign(copies, opts)

	gold := map[int]string{}     // field index -> gold cluster
	assigned := map[int]string{} // field index -> matcher cluster
	idx := 0
	for ti, t := range truth {
		gLeaves := t.Leaves()
		aLeaves := copies[ti].Leaves()
		for li := range gLeaves {
			gold[idx] = gLeaves[li].Cluster
			assigned[idx] = aLeaves[li].Cluster
			idx++
		}
	}
	var tp, fp, fn int
	for i := 0; i < idx; i++ {
		for j := i + 1; j < idx; j++ {
			g := gold[i] != "" && gold[i] == gold[j]
			a := assigned[i] == assigned[j]
			switch {
			case g && a:
				tp++
			case !g && a:
				fp++
			case g && !a:
				fn++
			}
		}
	}
	q := Quality{Clusters: n}
	if tp+fp > 0 {
		q.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		q.Recall = float64(tp) / float64(tp+fn)
	}
	return q
}
