package naming

import (
	"sort"
	"strings"

	"qilabel/internal/cluster"
)

// Counters tallies how often each logical inference rule produced (or
// discarded) a candidate label — the data behind Figure 10.
type Counters struct {
	LI [8]int // index 1..7 used
}

// Add increments the counter of rule li.
func (c *Counters) Add(li int) {
	if c != nil && li >= 1 && li < len(c.LI) {
		c.LI[li]++
	}
}

// Merge adds another tally into this one. Addition commutes, so merging
// per-unit counters in any order reproduces the serial totals — the
// property the parallel naming passes rely on.
func (c *Counters) Merge(o Counters) {
	for i, v := range o.LI {
		c.LI[i] += v
	}
}

// Total returns the total number of inference-rule firings.
func (c *Counters) Total() int {
	t := 0
	for _, v := range c.LI {
		t += v
	}
	return t
}

// GroupSolution is a naming solution for (a subset of) the clusters of a
// group relation.
type GroupSolution struct {
	// Labels holds one label per cluster of the relation ("" when even the
	// partially consistent construction found none).
	Labels []string
	// Level is the consistency level the solution was found at; 0 for
	// partially consistent solutions.
	Level Level
	// Consistent reports whether the solution is consistent for the whole
	// group (true) or only partially consistent (false).
	Consistent bool
	// Partition is the partition that supplied the solution; nil for
	// partially consistent solutions (§4.3: the pair has an empty first
	// component).
	Partition *Partition
	// Repaired reports whether the homonym-conflict repair of §4.2.3
	// modified the solution.
	Repaired bool
}

// GroupOutcome is the full result of solving one group: the set of
// (partition, solution) pairs of §4.3 plus the partitioning diagnostics the
// internal-node phase needs.
type GroupOutcome struct {
	Relation *cluster.Relation
	// Solutions lists one solution per covering partition, best first; for
	// a group without a consistent solution it holds exactly one partially
	// consistent solution.
	Solutions []*GroupSolution
	// Partitions are all partitions at the level the search stopped at.
	Partitions []*Partition
	// Level is the level the search stopped at (the level of the
	// consistent solutions, or the maximum level tried).
	Level Level
	// Consistent reports whether a consistent solution exists
	// (Proposition 1).
	Consistent bool
}

// Best returns the preferred solution (the first), or nil.
func (o *GroupOutcome) Best() *GroupSolution {
	if len(o.Solutions) == 0 {
		return nil
	}
	return o.Solutions[0]
}

// SolverOptions tune the group solver.
type SolverOptions struct {
	// MaxLevel caps the consistency levels tried (default LevelSynonymy).
	// Lower caps are used by the level-ablation benchmarks.
	MaxLevel Level
	// UseInstances enables the instance-based rules LI6/LI7.
	UseInstances bool
	// Counters, when non-nil, receives inference-rule tallies.
	Counters *Counters
}

func (o SolverOptions) maxLevel() Level {
	if o.MaxLevel == 0 {
		return LevelSynonymy
	}
	return o.MaxLevel
}

// SolveGroup computes the naming solutions for one group (§4.1–§4.3). The
// algorithm proceeds along the consistency levels; at the first level where
// some partition covers all clusters it extracts a consistent solution per
// covering partition. If no level suffices, it constructs one partially
// consistent solution from the partitions of the weakest level.
func (s *Semantics) SolveGroup(rel *cluster.Relation, opts SolverOptions) *GroupOutcome {
	return s.solveGroup(rel, nil, opts)
}

// solveGroup is SolveGroup with the facts of the relation's clusters, in
// column order (nil: computed here).
func (s *Semantics) solveGroup(rel *cluster.Relation, facts []*clusterFacts, opts SolverOptions) *GroupOutcome {
	if opts.UseInstances {
		rel = s.dropValueLabels(rel, facts, opts.Counters)
	}
	// Clusters without a label on any source interface cannot participate
	// in any consistency requirement: the algorithm can never label them
	// (the Real Estate No-Label field of Figure 11), so the covering
	// requirement of Proposition 1 applies to the labelable clusters only.
	required := make([]bool, len(rel.Clusters))
	for _, t := range rel.Tuples {
		for i, l := range t.Labels {
			if l != "" {
				required[i] = true
			}
		}
	}
	maxLevel := opts.maxLevel()
	forest := newTupleForest(rel)
	var parts []*Partition
	for level := LevelString; level <= maxLevel; level++ {
		s.raise(forest, level)
		parts = s.partitions(forest)
		covering := coveringRequired(parts, required)
		if len(covering) == 0 {
			continue
		}
		out := &GroupOutcome{Relation: rel, Partitions: parts, Level: level, Consistent: true}
		for _, p := range covering {
			sol := s.consistentSolution(rel, p, level, required)
			if sol != nil {
				out.Solutions = append(out.Solutions, sol)
			}
		}
		if len(out.Solutions) > 0 {
			// Expressiveness once per solution, not once per comparison.
			exps := make([]int, len(out.Solutions))
			for i, sol := range out.Solutions {
				exps[i] = s.Expressiveness(cluster.Tuple{Labels: sol.Labels})
			}
			sortByStable(out.Solutions, exps, func(i, j int) bool {
				return exps[i] > exps[j]
			})
			return out
		}
	}
	// No consistent solution at any level: partially consistent (§4.2.2).
	sol := s.partialSolution(rel, parts, maxLevel)
	return &GroupOutcome{
		Relation:   rel,
		Partitions: parts,
		Level:      maxLevel,
		Consistent: false,
		Solutions:  []*GroupSolution{sol},
	}
}

// consistentSolution extracts the best tuple-solution supplied by a
// covering partition (§4.2.1): the Combine* closure of the partition's
// tuples is searched for tuples with no null components; the most
// expressive wins, with the frequency-of-occurrence criterion breaking ties
// among candidate solutions (tuples already present in the relation).
func (s *Semantics) consistentSolution(rel *cluster.Relation, p *Partition, level Level, required []bool) *GroupSolution {
	isFull := func(t cluster.Tuple) bool {
		for i, req := range required {
			if req && (i >= len(t.Labels) || t.Labels[i] == "") {
				return false
			}
		}
		return true
	}
	var full []cluster.Tuple
	if len(p.Tuples) <= closureTupleLimit {
		for _, t := range s.CombineClosure(p.Tuples, level) {
			if isFull(t) {
				full = append(full, t)
			}
		}
	}
	if len(full) == 0 {
		// Large partitions (the root group of a flat domain can hold every
		// interface) make the exhaustive closure infeasible; greedy covers
		// along the component reach the same full tuples.
		for _, t := range s.greedyCovers(p, level) {
			if isFull(t) {
				full = append(full, t)
			}
		}
	}
	if len(full) == 0 {
		return nil
	}
	freq := make(map[string]int)
	for _, t := range rel.Tuples {
		freq[tupleKey(t)]++
	}
	// Rank every candidate once — the sort comparator previously recomputed
	// Expressiveness and re-joined tupleKey O(n log n) times.
	ranks := make([]tupleRank, len(full))
	for i, t := range full {
		k := tupleKey(t)
		ranks[i] = tupleRank{exp: s.Expressiveness(t), freq: freq[k], key: k}
	}
	sortByStable(full, ranks, func(i, j int) bool {
		if ranks[i].exp != ranks[j].exp {
			return ranks[i].exp > ranks[j].exp
		}
		if ranks[i].freq != ranks[j].freq {
			return ranks[i].freq > ranks[j].freq
		}
		return ranks[i].key < ranks[j].key
	})
	best := full[0]
	labels := append([]string(nil), best.Labels...)
	repaired := s.resolveHomonyms(labels, rel)
	return &GroupSolution{
		Labels:     labels,
		Level:      level,
		Consistent: true,
		Partition:  p,
		Repaired:   repaired,
	}
}

// closureTupleLimit bounds the partitions solved with the exhaustive
// Combine* closure; larger partitions use greedy covers.
const closureTupleLimit = 10

// greedyCovers grows, from every tuple of the partition, a combined tuple
// by repeatedly merging consistent partition tuples that add labels. Within
// a connected component this reaches the same coverage as Combine* without
// the exponential closure.
func (s *Semantics) greedyCovers(p *Partition, level Level) []cluster.Tuple {
	out := make([]cluster.Tuple, 0, len(p.Tuples))
	for i := range p.Tuples {
		t := p.Tuples[i]
		for changed := true; changed; {
			changed = false
			for _, u := range p.Tuples {
				// Combine keeps every non-null label of t, so the merge
				// grows t exactly when u fills one of t's nulls — check
				// that before paying for the consistency evaluation and
				// the combined tuple's allocation.
				if !fillsNull(t, u) {
					continue
				}
				if !s.TuplesConsistent(t, u, level) {
					continue
				}
				t = Combine(t, u)
				changed = true
			}
		}
		out = append(out, t)
	}
	return out
}

// tupleRank is a candidate tuple's precomputed sort criteria (§4.2.1):
// expressiveness, frequency of occurrence in the relation, and the label
// key as the deterministic final tie-break.
type tupleRank struct {
	exp, freq int
	key       string
}

// sortByStable stably sorts items together with a parallel key slice. The
// less function compares by position into keys; swaps keep the two slices
// aligned, so precomputed sort criteria replace per-comparison recomputation.
func sortByStable[T, K any](items []T, keys []K, less func(i, j int) bool) {
	sort.Stable(&parallelSorter[T, K]{items: items, keys: keys, less: less})
}

type parallelSorter[T, K any] struct {
	items []T
	keys  []K
	less  func(i, j int) bool
}

func (p *parallelSorter[T, K]) Len() int { return len(p.items) }
func (p *parallelSorter[T, K]) Swap(i, j int) {
	p.items[i], p.items[j] = p.items[j], p.items[i]
	p.keys[i], p.keys[j] = p.keys[j], p.keys[i]
}
func (p *parallelSorter[T, K]) Less(i, j int) bool { return p.less(i, j) }

// fillsNull reports whether u supplies a label for some null component of
// t — the exact condition under which Combine(t, u).NonNull() exceeds
// t.NonNull(), since Definition 3 keeps all of t's non-null labels.
func fillsNull(t, u cluster.Tuple) bool {
	n := len(t.Labels)
	if len(u.Labels) < n {
		n = len(u.Labels)
	}
	for i := 0; i < n; i++ {
		if t.Labels[i] == "" && u.Labels[i] != "" {
			return true
		}
	}
	return false
}

// partialSolution implements §4.2.2: a consistent solution is constructed
// for each partition; the partially consistent solution starts from the
// per-partition solution with the most non-null values and greedily fills
// its nulls from the remaining partitions' solutions.
func (s *Semantics) partialSolution(rel *cluster.Relation, parts []*Partition, level Level) *GroupSolution {
	var perPartition []cluster.Tuple
	for _, p := range parts {
		var cand []cluster.Tuple
		if len(p.Tuples) <= closureTupleLimit {
			cand = s.CombineClosure(p.Tuples, level)
		} else {
			cand = s.greedyCovers(p, level)
		}
		var best cluster.Tuple
		bestScore, bestExp := -1, -1
		for _, t := range cand {
			score := t.NonNull()
			if score < bestScore {
				continue
			}
			if score > bestScore {
				best, bestScore, bestExp = t, score, -1
				continue
			}
			// Tie on non-null count: break by expressiveness, computing the
			// incumbent's score at most once.
			if bestExp < 0 {
				bestExp = s.Expressiveness(best)
			}
			if e := s.Expressiveness(t); e > bestExp {
				best, bestExp = t, e
			}
		}
		if bestScore >= 0 {
			perPartition = append(perPartition, best)
		}
	}
	labels := make([]string, len(rel.Clusters))
	remaining := append([]cluster.Tuple(nil), perPartition...)
	for len(remaining) > 0 {
		// Pick the tuple with the most labels for still-unlabeled clusters.
		bestIdx, bestGain := -1, 0
		for i, t := range remaining {
			gain := 0
			for c, l := range t.Labels {
				if l != "" && labels[c] == "" {
					gain++
				}
			}
			if gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		for c, l := range remaining[bestIdx].Labels {
			if l != "" && labels[c] == "" {
				labels[c] = l
			}
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	repaired := s.resolveHomonyms(labels, rel)
	return &GroupSolution{Labels: labels, Consistent: false, Repaired: repaired}
}

// resolveHomonyms implements §4.2.3: if two clusters of the solution ended
// up with equivalent labels (the homonym problem: same name, different
// meaning), look for a relation tuple that labels both clusters, one entry
// being one of the conflicting labels and the other not, and adopt that
// tuple's pair of labels — source designers avoid such evident ambiguities.
// Returns whether the solution was modified.
func (s *Semantics) resolveHomonyms(labels []string, rel *cluster.Relation) bool {
	repaired := false
	for i := 0; i < len(labels); i++ {
		for j := i + 1; j < len(labels); j++ {
			if labels[i] == "" || labels[j] == "" || !s.sameName(labels[i], labels[j]) {
				continue
			}
			for _, t := range rel.Tuples {
				if i >= len(t.Labels) || j >= len(t.Labels) ||
					t.Labels[i] == "" || t.Labels[j] == "" {
					continue
				}
				iConf := s.sameName(t.Labels[i], labels[i]) || s.sameName(t.Labels[i], labels[j])
				jConf := s.sameName(t.Labels[j], labels[i]) || s.sameName(t.Labels[j], labels[j])
				if iConf != jConf { // exactly one entry is a conflicting label
					labels[i], labels[j] = t.Labels[i], t.Labels[j]
					repaired = true
					break
				}
			}
		}
	}
	return repaired
}

// sameName is the homonym notion of §4.2.3: two labels name the same thing
// when they are string-equal or equal (identical content-word sets). Mere
// synonymy is not a homonym conflict — "Employment Type" is an acceptable
// sibling of "Job Type" even though their words are synonyms.
func (s *Semantics) sameName(a, b string) bool {
	switch s.Relate(a, b) {
	case RelStringEqual, RelEqual:
		return true
	}
	return false
}

// dropValueLabels implements LI 7 (§6.1.2): a label of a field that occurs
// among the instances of another field in the same cluster is a data value,
// not a name ("hardcover" among the instances of "Format"); it is too
// specific and is discarded from the relation, provided the cluster keeps
// at least one other label. facts are the columns' cluster facts (nil:
// computed here); they rule most labels out without a scan of the members.
func (s *Semantics) dropValueLabels(rel *cluster.Relation, facts []*clusterFacts, counters *Counters) *cluster.Relation {
	out := &cluster.Relation{Clusters: rel.Clusters}
	drop := make(map[int]map[string]bool) // column -> lower-cased labels to drop
	for col, c := range rel.Clusters {
		var f *clusterFacts
		if facts != nil {
			f = facts[col]
		} else {
			f = memberFacts(c)
		}
		labels := f.labels
		if len(labels) < 2 {
			continue
		}
		for _, l := range labels {
			if !f.mayHaveValue(l) {
				continue
			}
			ll := strings.ToLower(strings.TrimSpace(l))
			for _, m := range c.Members {
				if strings.EqualFold(strings.TrimSpace(m.Leaf.Label), l) {
					continue // the field itself
				}
				for _, inst := range m.Leaf.Instances {
					if strings.EqualFold(strings.TrimSpace(inst), ll) {
						if drop[col] == nil {
							drop[col] = make(map[string]bool)
						}
						if !drop[col][ll] {
							drop[col][ll] = true
							counters.Add(7)
						}
					}
				}
			}
		}
		// Never drop every label of a column.
		if len(drop[col]) >= len(labels) {
			delete(drop, col)
		}
	}
	if len(drop) == 0 {
		return rel
	}
	for _, t := range rel.Tuples {
		nt := cluster.Tuple{
			Interface: t.Interface,
			Labels:    append([]string(nil), t.Labels...),
			Instances: append([][]string(nil), t.Instances...),
		}
		for col, set := range drop {
			if col < len(nt.Labels) && set[strings.ToLower(strings.TrimSpace(nt.Labels[col]))] {
				nt.Labels[col] = ""
			}
		}
		if nt.NonNull() > 0 {
			out.Tuples = append(out.Tuples, nt)
		}
	}
	return out
}
