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
// The pairwise pass is blocked: every field is indexed under the
// equivalence keys of its label (naming's Semantics.EquivalenceKeys,
// which Equivalent labels always share) and under each of its instance
// values (two fields whose value sets overlap by the threshold share at
// least one), and only pairs sharing at least one key reach the full
// similarity evaluation. Blocking therefore prunes only pairs that could
// never match, and the output is identical to the exhaustive O(F²) pass
// (pinned by TestBlockedMatchesUnblocked).
//
// Naming needs only the clusters, the connected components of the match
// graph, so the blocked pass also skips every pair whose fields are
// already connected. It runs in rounds of a fixed number of rows over one
// union-find forest. Within a round the rows fan out over the worker pool
// and only read the forest: row i skips each candidate already in its
// component as the round began. After the round, its matched pairs are
// unioned serially in row order. The forest at every round's start, and so
// the set of probed pairs, depends on the input alone, never on
// Parallelism or scheduling (pinned by TestRoundsScheduleIndependent).
// A skipped pair's fields are already connected, so the components come
// out as the exhaustive pass's.
//
// The evaluation benches use ground-truth clusters, as the paper does, so
// matcher noise cannot pollute the labeling results; the matcher exists
// for end-to-end runs over raw input.
package match

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"qilabel/internal/lexicon"
	"qilabel/internal/naming"
	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// minOverlap is the Jaccard threshold of the instance signal.
const minOverlap = 0.5

// clusterPrefix prefixes the generated cluster names.
const clusterPrefix = "m"

// Options tune the matcher.
type Options struct {
	// Lexicon is the lexicon Definition 1 consults (nil: the embedded
	// default).
	Lexicon *lexicon.Lexicon
	// Parallelism bounds the workers of the pairwise similarity pass, the
	// matcher's O(F²) hot loop (0: GOMAXPROCS, 1: serial). The pass is
	// deterministic at any setting: it runs in rounds of rows, workers only
	// read the union-find forest during a round, and each round's matched
	// pairs are unioned serially in row order, so the probed pairs and the
	// components depend on the input alone.
	Parallelism int
	// DisableBlocking forces the reference pass: every pair evaluated
	// exhaustively instead of through the block-key candidate index, on an
	// unmemoized Semantics over the same lexicon. The output is identical
	// either way; the exhaustive pass exists as the reference for
	// equivalence tests and benchmarks.
	DisableBlocking bool
	// Analysis, when non-nil, supplies a precomputed label-analysis table
	// over Lexicon that already covers the trees' trimmed field labels, so
	// the matcher skips its own PrecomputeAnalysis pass. Every worker reads
	// its label analyses, equivalence keys and, when the table was built by
	// a naming.Warm, the Warm's cross-run Relate verdicts through it; labels
	// missing from the table fall back to per-worker caches. A pure
	// accelerator, never an output change. Ignored under DisableBlocking
	// (the reference pass stays cold).
	Analysis *naming.Analysis
	// Pairs, when non-nil, receives the number of candidate pairs this run
	// evaluated. A candidate already connected to its row's field is
	// skipped and not counted, so the count depends on the input alone.
	Pairs *int
}

// roundRows is the number of rows the blocked pass probes between two
// updates of the union-find forest. Smaller rounds see more of the
// earlier rows' unions, so they skip more connected candidates, at the
// price of one worker-pool barrier per round.
const roundRows = 64

// rowBuf is one worker's reusable state: the seen-stamp array that
// deduplicates postings in O(1) per posting (stamp[j] == epoch marks j as
// already probed for the current row, so no per-row clearing).
type rowBuf struct {
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

// forest is the pairwise pass's union-find over field indices, kept flat:
// root[x] is x's component label, so a worker reads it with one load and
// never writes. A union relabels the smaller component and splices the two
// member rings, so each index is relabeled at most log2(n) times.
type forest struct {
	root []int32
	next []int32 // ring of each component's members
	size []int32 // member count, valid at a component's label
}

func newForest(n int) *forest {
	f := &forest{root: make([]int32, n), next: make([]int32, n), size: make([]int32, n)}
	for i := range f.root {
		f.root[i], f.next[i], f.size[i] = int32(i), int32(i), 1
	}
	return f
}

// union joins the components of a and b (serial use only).
func (f *forest) union(a, b int32) {
	ra, rb := f.root[a], f.root[b]
	if ra == rb {
		return
	}
	if f.size[ra] < f.size[rb] {
		ra, rb = rb, ra
	}
	for x := rb; ; {
		f.root[x] = ra
		if x = f.next[x]; x == rb {
			break
		}
	}
	f.next[ra], f.next[rb] = f.next[rb], f.next[ra]
	f.size[ra] += f.size[rb]
}

// blockIndex is the blocked pass's candidate index. Field i's block keys
// are the dense key IDs ids[off[i]:off[i+1]]; postings[id] lists the
// fields carrying key id in ascending order, and at[k] is field i's
// position in the posting list of ids[k], so a row enters each list right
// after itself. Label equivalence keys and instance values are two key
// spaces, one map each, so neither needs a prefix to stay apart.
type blockIndex struct {
	off, ids, at []int32
	postings     [][]int32
	byKey        map[string]int32 // label equivalence keys
	byValue      map[string]int32 // instance values
}

func newBlockIndex(n int) blockIndex {
	return blockIndex{
		off:     make([]int32, 1, n+1),
		byKey:   make(map[string]int32),
		byValue: make(map[string]int32),
	}
}

// add appends the next field's block keys: its label's equivalence keys
// and its instance values.
func (x *blockIndex) add(labelKeys, values []string) {
	for _, k := range labelKeys {
		x.post(x.byKey, k)
	}
	for _, v := range values {
		x.post(x.byValue, v)
	}
	x.off = append(x.off, int32(len(x.ids)))
}

// post appends the field being added to the posting list of key k in the
// given key space.
func (x *blockIndex) post(space map[string]int32, k string) {
	i := int32(len(x.off) - 1)
	id, ok := space[k]
	if !ok {
		id = int32(len(x.postings))
		space[k] = id
		x.postings = append(x.postings, nil)
	}
	x.ids = append(x.ids, id)
	x.at = append(x.at, int32(len(x.postings[id])))
	x.postings[id] = append(x.postings[id], i)
}

// fieldInfo is one leaf of the source trees with the normalizations the
// similarity signals need, computed once instead of per pair.
type fieldInfo struct {
	leaf  *schema.Node
	label string   // trimmed label ("" when unusable)
	inst  []string // case-folded, trimmed instance values, sorted and distinct
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
	fields, ifaces := collectFields(trees)

	// The shared analysis table normalizes every field label once; each
	// worker's Semantics reads it instead of re-analyzing into a cold
	// cache. The reference pass skips it (and the block-key index) so it
	// stays a true pre-optimization baseline.
	var analysis *naming.Analysis
	var index blockIndex
	if !opts.DisableBlocking {
		analysis = opts.Analysis
		if analysis == nil {
			labels := make([]string, 0, len(fields))
			for i := range fields {
				if fields[i].label != "" {
					labels = append(labels, fields[i].label)
				}
			}
			analysis = naming.PrecomputeAnalysis(opts.Lexicon, labels)
		}

		// Block-key index over the fields in index order.
		keySem := analysis.Semantics()
		index = newBlockIndex(len(fields))
		for i := range fields {
			var keys []string
			if fields[i].label != "" {
				keys = keySem.EquivalenceKeys(fields[i].label)
			}
			index.add(keys, fields[i].inst)
		}
	}

	// Pairwise similarity in rounds of roundRows rows, one row per field:
	// row i probes its candidates j > i and records those it matches.
	// Within a round the rows fan out over the worker pool and only read
	// the forest; after it, the round's matches are unioned serially in row
	// order. The blocked pass skips every candidate already in row i's
	// component as the round began, since that pair cannot change the
	// components. The forest at each round's start, and so every probed
	// pair, depends on the input alone, never on the schedule. Each worker
	// carries its own Semantics (the Relate memo is not concurrency-safe):
	// in the blocked pass one over the shared analysis table, which cannot
	// change any verdict — only its speed.
	workers := pool.Workers(opts.Parallelism)
	sems := make([]*naming.Semantics, workers)
	rows := make([]*rowBuf, workers)
	evaluated := make([]int, workers)
	roots := newForest(len(fields))
	matched := make([][]int32, min(roundRows, len(fields))) // per row of the round
	start := 0                                              // the round's first row
	row := func(w, k int) {
		i := start + k
		if sems[w] == nil {
			if analysis != nil {
				sems[w] = analysis.Semantics()
			} else {
				sems[w] = naming.NewSemanticsUnmemoized(opts.Lexicon)
			}
		}
		fi, got, probed := &fields[i], matched[k][:0], 0
		// The evaluation count goes to the worker's slot once per row: the
		// slots share cache lines, so per-pair increments would contend.
		if opts.DisableBlocking {
			for j := i + 1; j < len(fields); j++ {
				// Fields of the same interface never match each other.
				if ifaces[j] == ifaces[i] {
					continue
				}
				probed++
				if matchFields(sems[w], fi, &fields[j]) {
					got = append(got, int32(j))
				}
			}
			matched[k] = got
			evaluated[w] += probed
			return
		}
		// Candidates: fields after i sharing at least one block key, outside
		// i's interface and component, deduplicated by seen-stamps. Short of
		// the connected ones, the candidate *set* is exactly what the
		// exhaustive scan evaluates; its order follows the posting lists
		// instead of ascending j, which cannot change the outcome — verdicts
		// are pure, and the components are invariant to the union order.
		if rows[w] == nil {
			rows[w] = &rowBuf{}
		}
		rb := rows[w]
		epoch := rb.beginRow(len(fields))
		iface, root := ifaces[i], roots.root[i]
		for p := index.off[i]; p < index.off[i+1]; p++ {
			for _, j := range index.postings[index.ids[p]][index.at[p]+1:] {
				if ifaces[j] == iface || roots.root[j] == root || rb.stamp[j] == epoch {
					continue
				}
				rb.stamp[j] = epoch
				probed++
				if matchFields(sems[w], fi, &fields[j]) {
					got = append(got, j)
				}
			}
		}
		matched[k] = got
		evaluated[w] += probed
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	for ; start < len(fields); start += roundRows {
		n := min(roundRows, len(fields)-start)
		if err := pool.ForEach(ctx, workers, n, row); err != nil {
			return 0, err
		}
		for k, js := range matched[:n] {
			for _, j := range js {
				roots.union(int32(start+k), j)
			}
		}
	}
	if opts.Pairs != nil {
		for _, e := range evaluated {
			*opts.Pairs += e
		}
	}
	return clusterize(fields, ifaces, roots.root), nil
}

// collectFields flattens the trees' leaves into fieldInfos with the
// normalizations the similarity signals need, computed once instead of per
// pair. It also returns each field's interface ordinal, equal exactly when
// the Interface strings are: a session may stack two copies of one
// interface, so an interface's fields need not be contiguous.
func collectFields(trees []*schema.Tree) ([]fieldInfo, []int32) {
	var fields []fieldInfo
	var ifaces []int32
	ordinal := make(map[string]int32)
	for _, t := range trees {
		o, ok := ordinal[t.Interface]
		if !ok {
			o = int32(len(ordinal))
			ordinal[t.Interface] = o
		}
		for _, leaf := range t.Leaves() {
			f := fieldInfo{leaf: leaf, label: strings.TrimSpace(leaf.Label)}
			if len(leaf.Instances) > 0 {
				f.inst = make([]string, len(leaf.Instances))
				for i, v := range leaf.Instances {
					f.inst[i] = strings.ToLower(strings.TrimSpace(v))
				}
				slices.Sort(f.inst)
				f.inst = slices.Compact(f.inst)
			}
			fields = append(fields, f)
			ifaces = append(ifaces, o)
		}
	}
	return fields, ifaces
}

// clusterize turns the forest's components into cluster
// annotations on the leaves and returns the number of clusters formed.
func clusterize(fields []fieldInfo, ifaces []int32, roots []int32) int {
	// A cluster may not contain two fields of one interface. Transitive
	// closure can still glue them together (both date groups label a field
	// "Month", chained through other interfaces), so components are split
	// by per-interface occurrence: the k-th same-component field of an
	// interface goes into the component's k-th cluster. The k-th
	// occurrences across interfaces land together — exactly how paired
	// concepts (departure month / return month) separate.
	type slot struct {
		root, occ int32
	}
	occIndex := make([]int32, len(fields))
	count := make(map[[2]int32]int32) // (component, interface) -> fields so far
	for i := range fields {
		c := [2]int32{roots[i], ifaces[i]}
		occIndex[i] = count[c]
		count[c]++
	}
	names := make(map[slot]string)
	next := 1
	for i, f := range fields {
		key := slot{roots[i], occIndex[i]}
		name, ok := names[key]
		if !ok {
			name = fmt.Sprintf("%s_%03d", clusterPrefix, next)
			next++
			names[key] = name
		}
		f.leaf.Cluster = name
	}
	return next - 1
}

// matchFields evaluates the two similarity signals on precomputed fields.
func matchFields(sem *naming.Semantics, a, b *fieldInfo) bool {
	if a.label != "" && b.label != "" && sem.Equivalent(a.label, b.label) {
		return true
	}
	return len(a.inst) > 0 && len(b.inst) > 0 && jaccard(a.inst, b.inst) >= minOverlap
}

// jaccard computes the Jaccard similarity of two sorted, distinct value
// sets by one merge pass. Overlap at any positive threshold needs a shared
// value, which is what the instance-value block keys rely on.
func jaccard(a, b []string) float64 {
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
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
