package naming

import (
	"math/bits"
	"sort"

	"qilabel/internal/cluster"
)

// clusterSet is a set of clusters numbered by a nodeIndex, one bit per
// cluster. All sets of one index have the same length, so ⊆, = and ∪ are
// word operations.
type clusterSet []uint64

func (a clusterSet) add(i int) { a[i/64] |= 1 << (i % 64) }

func (a clusterSet) subsetOf(b clusterSet) bool {
	for i, w := range a {
		if w&^b[i] != 0 {
			return false
		}
	}
	return true
}

func (a clusterSet) equal(b clusterSet) bool {
	for i, w := range a {
		if w != b[i] {
			return false
		}
	}
	return true
}

// or adds b's members to a and reports whether a grew.
func (a clusterSet) or(b clusterSet) bool {
	grew := false
	for i, w := range b {
		if w&^a[i] != 0 {
			a[i] |= w
			grew = true
		}
	}
	return grew
}

// minus returns a − b as a fresh set.
func (a clusterSet) minus(b clusterSet) clusterSet {
	out := make(clusterSet, len(a))
	for i, w := range a {
		out[i] = w &^ b[i]
	}
	return out
}

func (a clusterSet) count() int {
	n := 0
	for _, w := range a {
		n += bits.OnesCount64(w)
	}
	return n
}

// each calls fn with every member's number, ascending.
func (a clusterSet) each(fn func(int)) {
	for i, w := range a {
		for w != 0 {
			fn(i*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// nodeIndex is the per-run index behind the internal-node candidate
// derivation (§5): every cluster numbered once, every labeled source node
// reduced to a clusterSet, and every cluster's field-label content words
// sorted and deduplicated. RunContext builds it serially before the
// per-node fan-out; the workers only read it.
type nodeIndex struct {
	m     *cluster.Mapping
	ids   map[string]int
	names []string
	words [][]string // per cluster: its field labels' content words
	units []sourceUnit
	sets  []clusterSet // per unit: its cluster set
}

// newNodeIndex numbers the mapping's clusters, then any other cluster the
// units or the integrated leaves name (leaves: the integrated tree's leaf
// clusters, the universe every node's X is drawn from).
func newNodeIndex(s *Semantics, m *cluster.Mapping, units []sourceUnit, leaves map[string]bool) *nodeIndex {
	ix := &nodeIndex{m: m, ids: make(map[string]int, len(m.Clusters))}
	for _, c := range m.Clusters {
		ix.number(c.Name)
	}
	var extra []string
	for _, u := range units {
		for c := range u.clusters {
			if _, ok := ix.ids[c]; !ok {
				extra = append(extra, c)
			}
		}
	}
	for c := range leaves {
		if _, ok := ix.ids[c]; !ok {
			extra = append(extra, c)
		}
	}
	sort.Strings(extra)
	for _, c := range extra {
		ix.number(c)
	}

	ix.words = make([][]string, len(ix.names))
	for i, name := range ix.names {
		cl := m.Get(name)
		if cl == nil {
			continue
		}
		var words []string
		for _, l := range cl.Labels() {
			words = append(words, s.ContentWords(l)...)
		}
		sort.Strings(words)
		ix.words[i] = dedupSorted(words)
	}

	ix.units = units
	ix.sets = make([]clusterSet, len(units))
	for i, u := range units {
		ix.sets[i] = ix.newSet()
		for c := range u.clusters {
			ix.sets[i].add(ix.ids[c])
		}
	}
	return ix
}

func (ix *nodeIndex) number(name string) {
	if _, ok := ix.ids[name]; !ok {
		ix.ids[name] = len(ix.names)
		ix.names = append(ix.names, name)
	}
}

func (ix *nodeIndex) newSet() clusterSet {
	return make(clusterSet, (len(ix.names)+63)/64)
}

// setOf returns the set of the named clusters, which must all be indexed.
func (ix *nodeIndex) setOf(names []string) clusterSet {
	set := ix.newSet()
	for _, n := range names {
		set.add(ix.ids[n])
	}
	return set
}

// namesOf lists a set's cluster names in index order.
func (ix *nodeIndex) namesOf(set clusterSet) []string {
	var out []string
	set.each(func(i int) { out = append(out, ix.names[i]) })
	return out
}

// wordsOf merges the content-word lists of a set's clusters into one
// sorted, deduplicated list — fieldContentWords over the set.
func (ix *nodeIndex) wordsOf(set clusterSet) []string {
	var words []string
	set.each(func(i int) { words = append(words, ix.words[i]...) })
	sort.Strings(words)
	return dedupSorted(words)
}

// wordsCover reports whether every word of the sorted, duplicate-free list
// ws is a content word of some cluster in set: subsetSorted(ws,
// wordsOf(set)) without materializing the union.
func (ix *nodeIndex) wordsCover(ws []string, set clusterSet) bool {
next:
	for _, w := range ws {
		for i, b := range set {
			for ; b != 0; b &= b - 1 {
				cw := ix.words[i*64+bits.TrailingZeros64(b)]
				if j := sort.SearchStrings(cw, w); j < len(cw) && cw[j] == w {
					continue next
				}
			}
		}
		return false
	}
	return true
}

// indexedPotential is potential with bitset coverage and extended sets,
// carrying its label's ID (labelID) for relateIDs.
type indexedPotential struct {
	label    string
	id       int32
	forms    map[string]bool
	origins  map[string]bool
	coverage clusterSet
	extended clusterSet
}

// candidateLabelsIndexed is candidateLabels over a nodeIndex: the same
// derivation step for step — same potential order, same LI1 merge order,
// same rule tallies — with X, the unit cluster sets and the potentials'
// coverage and extended sets carried as bitsets. candidateLabels remains
// the reference it must match byte for byte (Options.DisableMemo).
func (s *Semantics) candidateLabelsIndexed(ix *nodeIndex, x clusterSet, opts SolverOptions) ([]CandidateLabel, int) {
	// Potential labels: labeled source nodes whose cluster sets are inside
	// X. Every later read of the unit list filters on the same condition,
	// so the derivation only ever consults sub.
	var sub []int
	var pots []*indexedPotential
	for k, u := range ix.units {
		if !ix.sets[k].subsetOf(x) {
			continue
		}
		sub = append(sub, k)
		id := s.labelID(u.label)
		var found *indexedPotential
		for _, p := range pots {
			if s.relateIDs(p.id, id, p.label, u.label).equivalent() {
				found = p
				break
			}
		}
		if found == nil {
			found = &indexedPotential{
				label:    u.label,
				id:       id,
				forms:    map[string]bool{},
				origins:  map[string]bool{},
				coverage: ix.newSet(),
			}
			pots = append(pots, found)
		} else if s.ContentWordCount(u.label) > s.ContentWordCount(found.label) {
			found.label, found.id = u.label, id
		}
		found.forms[u.label] = true
		found.origins[u.iface] = true
		found.coverage.or(ix.sets[k])
	}
	if len(pots) == 0 {
		return nil, 0
	}

	// LI 1 (see candidateLabels).
	for merged := true; merged; {
		merged = false
		for i := 0; i < len(pots) && !merged; i++ {
			for j := 0; j < len(pots) && !merged; j++ {
				if i == j {
					continue
				}
				a, b := pots[i], pots[j]
				if s.relateIDs(a.id, b.id, a.label, b.label) == RelHypernym && a.coverage.subsetOf(b.coverage) {
					opts.Counters.Add(1)
					if s.ContentWordCount(b.label) >= s.ContentWordCount(a.label) {
						a.label, a.id = b.label, b.id
					}
					for f := range b.forms {
						a.forms[f] = true
					}
					a.coverage.or(b.coverage)
					for o := range b.origins {
						a.origins[o] = true
					}
					pots = append(pots[:j], pots[j+1:]...)
					merged = true
				}
			}
		}
	}

	// LI 3 / LI 4 (see candidateLabels). Labels no longer change, so the
	// hypernymy relation among the potentials is evaluated once.
	hyper := make([][]bool, len(pots))
	for i, p := range pots {
		p.extended = append(clusterSet(nil), p.coverage...)
		hyper[i] = make([]bool, len(pots))
		for j, q := range pots {
			hyper[i][j] = i != j && s.relateIDs(p.id, q.id, p.label, q.label) == RelHypernym
		}
	}
	for changed := true; changed; {
		changed = false
		for i, p := range pots {
			for j, q := range pots {
				if hyper[i][j] && p.extended.or(q.extended) {
					changed = true
				}
			}
		}
	}
	contributors := func(i int) int {
		n := 0
		for j, q := range pots {
			if hyper[i][j] && !q.extended.subsetOf(pots[i].coverage) {
				n++
			}
		}
		return n
	}

	var out []CandidateLabel
	for i, p := range pots {
		rule := 0
		switch {
		case p.coverage.equal(x):
			rule = 2
		case p.extended.equal(x):
			if contributors(i) <= 1 {
				rule = 3
				opts.Counters.Add(3)
			} else {
				rule = 4
				opts.Counters.Add(4)
			}
		default:
			if s.extendMeaningIndexed(ix, p.extended, x, sub, opts) {
				rule = 5
				opts.Counters.Add(5)
			}
		}
		if rule == 0 {
			continue
		}
		if rule == 2 {
			opts.Counters.Add(2)
		}
		out = append(out, s.newCandidate(p.label, p.forms, p.origins, rule))
	}
	rankCandidates(out)
	return out, len(pots)
}

// extendMeaningIndexed is extendMeaning over a nodeIndex, consulting only
// the units in sub (those inside X — condition (2) requires u ⊆ X anyway).
// Z's content words are merged once per call, W's are looked up in the
// per-cluster lists.
func (s *Semantics) extendMeaningIndexed(ix *nodeIndex, y, x clusterSet, sub []int, opts SolverOptions) bool {
	z := x.minus(y)
	nz := z.count()
	if nz == 0 || nz == x.count() {
		return false
	}

	// Condition (1): instance containment (see extendMeaning).
	if opts.UseInstances {
		zNames := ix.namesOf(z)
		if allHaveInstances(ix.m, zNames) {
			zInst := unionInstances(ix.m, zNames)
			if len(zInst) > 0 && subsetFold(zInst, unionInstances(ix.m, ix.namesOf(y))) {
				return true
			}
		}
	}

	// Condition (2): a source node over W ∪ Z whose label's content words
	// come from W's field labels and not all from Z's.
	var zWords []string
	zDone := false
	w := ix.newSet()
	for _, k := range sub {
		if !z.subsetOf(ix.sets[k]) {
			continue
		}
		empty := true
		for i, b := range ix.sets[k] {
			w[i] = b &^ z[i]
			if w[i] != 0 {
				empty = false
			}
		}
		if empty || !w.subsetOf(y) {
			continue
		}
		labelWords := s.ContentWords(ix.units[k].label)
		if len(labelWords) == 0 || !ix.wordsCover(labelWords, w) {
			continue
		}
		if !zDone {
			zWords, zDone = ix.wordsOf(z), true
		}
		if len(zWords) > 0 && subsetSorted(labelWords, zWords) {
			continue
		}
		return true
	}
	return false
}
