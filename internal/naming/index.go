package naming

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

// clusterSet is a set of the clusters of one X being derived, one bit per
// cluster's position in X (nodeScratch.local). All sets of one derivation
// have the same length, so ⊆, = and ∪ are word operations, and a set costs
// what X holds, not what the run does.
type clusterSet []uint64

func (a clusterSet) add(i int32) { a[i/64] |= 1 << (i % 64) }

func (a clusterSet) has(i int32) bool { return a[i/64]&(1<<(i%64)) != 0 }

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

// each calls fn with every member's position, ascending.
func (a clusterSet) each(fn func(int32)) {
	for i, w := range a {
		for w != 0 {
			fn(int32(i*64 + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// noID marks a source unit whose label the run's analysis table lacks:
// each Semantics then interns it on its own (labelID).
const noID = math.MinInt32

// sourceUnit is a labeled internal node of a source tree, reduced to its
// descendant cluster set: the run units.ids[lo:hi] of its sorted distinct
// cluster IDs (cluster.Table numbering).
type sourceUnit struct {
	iface   string
	label   string
	id      int32 // the label's ID in the run's analysis table, or noID
	form    int32 // the label's table ID
	ordinal int32 // the interface's table ordinal
	lo, hi  int32
}

// sourceUnits lists every labeled internal node of a table's sources with
// a non-empty cluster set, in table order.
type sourceUnits struct {
	list []sourceUnit
	ids  []int32 // the units' cluster-ID runs, back to back
}

// newSourceUnits reads the labeled nodes off the table. shared, when
// non-nil, is the run's analysis table, whose IDs the units carry.
func newSourceUnits(tab *cluster.Table, shared *Analysis) sourceUnits {
	var us sourceUnits
	for _, nd := range tab.Nodes {
		if nd.Label < 0 {
			continue
		}
		label := tab.Labels[nd.Label]
		if strings.TrimSpace(label) == "" {
			continue
		}
		lo := int32(len(us.ids))
		us.ids = tab.SpanClusters(us.ids, nd.Lo, nd.Hi)
		if int32(len(us.ids)) == lo {
			continue
		}
		src := &tab.Sources[nd.Source]
		u := sourceUnit{iface: src.Interface, label: label, id: noID, form: nd.Label,
			ordinal: src.Ordinal, lo: lo, hi: int32(len(us.ids))}
		if shared != nil {
			if id, ok := shared.ids[label]; ok {
				u.id = id
			}
		}
		us.list = append(us.list, u)
	}
	return us
}

// run returns unit k's sorted cluster IDs.
func (us *sourceUnits) run(k int) []int32 { return us.ids[us.list[k].lo:us.list[k].hi] }

// clusterFacts are the facts the naming passes read about one cluster,
// computed once per run from its members.
type clusterFacts struct {
	// labels are the distinct trimmed member labels, first seen first
	// (Cluster.Labels).
	labels []string
	// domain is the sorted union of the members' instances, domain("") of
	// LI 6 and the integrated field's instances.
	domain []string
	// values are the members' instances trimmed and lower-cased, sorted
	// and distinct: the form LI 5's instance condition compares.
	values []string
	// ascii reports that every instance is ASCII, where strings.EqualFold
	// is equality of the lower-cased strings.
	ascii bool
}

// newClusterFacts derives the facts of a cluster from the table leaves of
// its members (tab.Members): their trimmed labels and folded instance sets
// are the table's, so a set several members share is read once.
func newClusterFacts(tab *cluster.Table, leaves []int32) *clusterFacts {
	f := &clusterFacts{ascii: true}
	var sets []int32 // the distinct folded sets of the members
	n := 0
	for _, leaf := range leaves {
		l := &tab.Leaves[leaf]
		if l.Trimmed >= 0 && !slices.Contains(f.labels, tab.Labels[l.Trimmed]) {
			f.labels = append(f.labels, tab.Labels[l.Trimmed])
		}
		if l.Set > 0 && !slices.Contains(sets, l.Set) {
			sets = append(sets, l.Set)
		}
		n += len(l.Node.Instances)
	}
	if n == 0 {
		return f
	}
	f.domain = make([]string, 0, n)
	for _, leaf := range leaves {
		for _, v := range tab.Leaves[leaf].Node.Instances {
			f.domain = append(f.domain, v)
			f.ascii = f.ascii && isASCII(v)
		}
	}
	slices.Sort(f.domain)
	f.domain = slices.Clip(slices.Compact(f.domain))
	if len(sets) == 1 {
		f.values = tab.Sets[sets[0]] // shared with the table: read only
		return f
	}
	var values []string
	for _, set := range sets {
		values = append(values, tab.Sets[set]...)
	}
	slices.Sort(values)
	f.values = slices.Compact(values)
	return f
}

// memberFacts derives the facts of a cluster outside a pipeline run, over
// a table whose sources are the cluster's members.
func memberFacts(c *cluster.Cluster) *clusterFacts {
	trees := make([]*schema.Tree, len(c.Members))
	leaves := make([]int32, len(c.Members))
	for k, m := range c.Members {
		trees[k] = &schema.Tree{Interface: m.Interface, Root: m.Leaf}
		leaves[k] = int32(k)
	}
	return newClusterFacts(cluster.NewTable(trees), leaves)
}

// mayHaveValue reports whether some member instance might equal label
// under strings.EqualFold after trimming: false only when the cluster is
// ASCII and no lower-cased instance is lower(label).
func (f *clusterFacts) mayHaveValue(label string) bool {
	if !f.ascii || !isASCII(label) {
		return true
	}
	_, ok := slices.BinarySearch(f.values, strings.ToLower(strings.TrimSpace(label)))
	return ok
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// runIndex is the per-run index the naming passes share: the facts of
// every mapping cluster (by table cluster ID), and for the internal-node
// candidate derivation (§5) the labeled source nodes as cluster-ID runs,
// each unit's content words, and every cluster's field-label content
// words. RunTable builds it serially before the fan-outs; the workers only
// read it.
type runIndex struct {
	tab    *cluster.Table
	facts  []*clusterFacts // per mapping cluster
	ids    map[*cluster.Cluster]int32
	ifaces []string // the interface names by table ordinal
	units  sourceUnits
	// byMin lists, per cluster ID, the units whose smallest cluster it is,
	// ascending: the only units that can lie inside an X holding it.
	byMin [][]int32
	// The indexed derivation's word lists: per unit, its label's content
	// words; per cluster, its field labels' content words, sorted and
	// deduplicated.
	unitWords [][]string
	words     [][]string
}

// newRunIndex computes the cluster facts of the table's bound mapping and
// the source units. With s non-nil (the indexed derivation) it also
// indexes the units by their smallest cluster and derives the word lists
// through s.
func newRunIndex(tab *cluster.Table, s *Semantics) *runIndex {
	m := tab.Mapping
	ix := &runIndex{tab: tab, facts: make([]*clusterFacts, len(m.Clusters)),
		ids: make(map[*cluster.Cluster]int32, len(m.Clusters))}
	for i, c := range m.Clusters {
		ix.facts[i] = newClusterFacts(tab, tab.Members(int32(i)))
		ix.ids[c] = int32(i)
	}
	var shared *Analysis
	if s != nil {
		shared = s.shared
	}
	ix.units = newSourceUnits(tab, shared)
	if s == nil {
		return ix
	}
	for _, src := range tab.Sources {
		if int(src.Ordinal) == len(ix.ifaces) {
			ix.ifaces = append(ix.ifaces, src.Interface)
		}
	}
	ix.byMin = make([][]int32, len(tab.Names))
	ix.unitWords = make([][]string, len(ix.units.list))
	for k := range ix.units.list {
		first := ix.units.run(k)[0]
		ix.byMin[first] = append(ix.byMin[first], int32(k))
		ix.unitWords[k] = s.contentWords(ix.units.list[k].label)
	}
	ix.words = make([][]string, len(tab.Names))
	for i, f := range ix.facts {
		var words []string
		for _, l := range f.labels {
			words = append(words, s.contentWords(l)...)
		}
		sort.Strings(words)
		ix.words[i] = dedupSorted(words)
	}
	return ix
}

// factsOf returns the facts of the given clusters of the bound mapping.
func (ix *runIndex) factsOf(group []*cluster.Cluster) []*clusterFacts {
	out := make([]*clusterFacts, len(group))
	for i, c := range group {
		out[i] = ix.facts[ix.ids[c]]
	}
	return out
}

// nodeScratch is one worker's reusable state for the indexed derivation:
// local[id] is cluster id's position in the X being derived, -1 outside
// it, so a derivation's sets have |X| bits whatever the run's size.
type nodeScratch struct {
	local []int32
	sub   []int32
}

func newNodeScratch(n int) *nodeScratch {
	sc := &nodeScratch{local: make([]int32, n)}
	for i := range sc.local {
		sc.local[i] = -1
	}
	return sc
}

// inside reports whether every cluster of run lies in the current X.
func (sc *nodeScratch) inside(run []int32) bool {
	for _, c := range run {
		if sc.local[c] < 0 {
			return false
		}
	}
	return true
}

// addRun adds the positions of run's clusters, all in X, to set.
func (sc *nodeScratch) addRun(set clusterSet, run []int32) {
	for _, c := range run {
		set.add(sc.local[c])
	}
}

// indexedPotential is potential with bitset coverage and extended sets,
// carrying its label's ID (labelID) for relateIDs and its content-word
// count. Its forms are table label IDs, each once, and its origins a
// bitset of interface ordinals.
type indexedPotential struct {
	label    string
	id       int32
	words    int
	forms    []int32
	origins  []uint64
	coverage clusterSet
	extended clusterSet
}

// addForm adds a table label ID to the potential's forms.
func (p *indexedPotential) addForm(form int32) {
	if !slices.Contains(p.forms, form) {
		p.forms = append(p.forms, form)
	}
}

// candidateLabelsIndexed is candidateLabels over a runIndex: the same
// derivation step for step — same potential order, same LI1 merge order,
// same rule tallies — with X (xs: its sorted cluster IDs), the unit
// cluster sets and the potentials' coverage and extended sets carried as
// bitsets over X's clusters. candidateLabels remains the reference it must
// match byte for byte (Options.DisableMemo).
func (s *Semantics) candidateLabelsIndexed(ix *runIndex, sc *nodeScratch, xs []int32, opts SolverOptions) ([]CandidateLabel, int) {
	for i, c := range xs {
		sc.local[c] = int32(i)
	}
	defer func() {
		for _, c := range xs {
			sc.local[c] = -1
		}
	}()
	x := make(clusterSet, (len(xs)+63)/64)
	for i := range xs {
		x.add(int32(i))
	}

	// Potential labels: labeled source nodes whose cluster sets are inside
	// X, in unit order. A unit inside X has its smallest cluster in X.
	// Every later read of the unit list filters on the same condition, so
	// the derivation only ever consults sub.
	sub := sc.sub[:0]
	for _, c := range xs {
		for _, k := range ix.byMin[c] {
			if sc.inside(ix.units.run(int(k))) {
				sub = append(sub, k)
			}
		}
	}
	slices.Sort(sub)
	sc.sub = sub
	var pots []*indexedPotential
	for _, k := range sub {
		u := &ix.units.list[k]
		id := u.id
		if id == noID {
			id = s.labelID(u.label)
		}
		words := len(ix.unitWords[k])
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
				words:    words,
				origins:  make([]uint64, (len(ix.ifaces)+63)/64),
				coverage: make(clusterSet, len(x)),
			}
			pots = append(pots, found)
		} else if words > found.words {
			found.label, found.id, found.words = u.label, id, words
		}
		found.addForm(u.form)
		found.origins[u.ordinal/64] |= 1 << (u.ordinal % 64)
		sc.addRun(found.coverage, ix.units.run(int(k)))
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
					if b.words >= a.words {
						a.label, a.id, a.words = b.label, b.id, b.words
					}
					for _, f := range b.forms {
						a.addForm(f)
					}
					a.coverage.or(b.coverage)
					clusterSet(a.origins).or(b.origins)
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
			if s.extendMeaningIndexed(ix, sc, xs, p.extended, x, sub, opts) {
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
		forms := make([]string, len(p.forms))
		for i, f := range p.forms {
			forms[i] = ix.tab.Labels[f]
		}
		var origins []string
		clusterSet(p.origins).each(func(o int32) { origins = append(origins, ix.ifaces[o]) })
		out = append(out, s.newCandidate(p.label, forms, origins, rule))
	}
	rankCandidates(out)
	return out, len(pots)
}

// extendMeaningIndexed is extendMeaning over a runIndex, consulting only
// the units in sub (those inside X — condition (2) requires u ⊆ X anyway).
// Z's content words are merged once per call, W's are looked up in the
// per-cluster lists, and the instance condition compares the clusters'
// precomputed values.
func (s *Semantics) extendMeaningIndexed(ix *runIndex, sc *nodeScratch, xs []int32, y, x clusterSet, sub []int32, opts SolverOptions) bool {
	z := x.minus(y)
	nz := z.count()
	if nz == 0 || nz == len(xs) {
		return false
	}

	// Condition (1): instance containment (see extendMeaning).
	if opts.UseInstances && ix.valuesCovered(xs, z, y) {
		return true
	}

	// Condition (2): a source node over W ∪ Z whose label's content words
	// come from W's field labels and not all from Z's.
	var zWords []string
	zDone := false
	w := make(clusterSet, len(x))
	for _, k := range sub {
		run := ix.units.run(int(k))
		inZ := 0
		for _, c := range run {
			if z.has(sc.local[c]) {
				inZ++
			}
		}
		if inZ != nz || inZ == len(run) {
			continue // Z ⊄ u, or W = u − Z is empty
		}
		clear(w)
		for _, c := range run {
			if i := sc.local[c]; !z.has(i) {
				w.add(i)
			}
		}
		if !w.subsetOf(y) {
			continue
		}
		labelWords := ix.unitWords[k]
		if len(labelWords) == 0 || !ix.wordsCover(labelWords, xs, w) {
			continue
		}
		if !zDone {
			zWords, zDone = ix.wordsOf(xs, z), true
		}
		if len(zWords) > 0 && subsetSorted(labelWords, zWords) {
			continue
		}
		return true
	}
	return false
}

// valuesCovered is LI 5's instance condition over X's clusters: every
// cluster of Z carries instances, and each of Z's instance values (trimmed
// and lower-cased) is a value of some cluster of Y.
func (ix *runIndex) valuesCovered(xs []int32, z, y clusterSet) bool {
	covered := true
	z.each(func(i int32) {
		if covered && len(ix.facts[xs[i]].domain) == 0 {
			covered = false
		}
	})
	if !covered {
		return false
	}
	z.each(func(i int32) {
		for _, v := range ix.facts[xs[i]].values {
			if !covered {
				return
			}
			found := false
			y.each(func(j int32) {
				if !found {
					_, found = slices.BinarySearch(ix.facts[xs[j]].values, v)
				}
			})
			covered = found
		}
	})
	return covered
}

// wordsOf merges the content-word lists of a set's clusters into one
// sorted, deduplicated list — fieldContentWords over the set.
func (ix *runIndex) wordsOf(xs []int32, set clusterSet) []string {
	var words []string
	set.each(func(i int32) { words = append(words, ix.words[xs[i]]...) })
	sort.Strings(words)
	return dedupSorted(words)
}

// wordsCover reports whether every word of the sorted, duplicate-free list
// ws is a content word of some cluster in set: subsetSorted(ws,
// wordsOf(set)) without materializing the union.
func (ix *runIndex) wordsCover(ws []string, xs []int32, set clusterSet) bool {
next:
	for _, w := range ws {
		for i, b := range set {
			for ; b != 0; b &= b - 1 {
				cw := ix.words[xs[i*64+bits.TrailingZeros64(b)]]
				if j := sort.SearchStrings(cw, w); j < len(cw) && cw[j] == w {
					continue next
				}
			}
		}
		return false
	}
	return true
}
