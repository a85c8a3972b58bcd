package naming

import (
	"slices"
	"sort"
	"strings"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

// CandidateLabel is a label derivable for a global internal node, annotated
// with the inference rule that established its semantic coverage and the
// interfaces it originates from (Definition 6 needs the origins to check
// consistency with group solutions).
type CandidateLabel struct {
	// Label is the display form of the candidate.
	Label string
	// Origins are the interfaces whose internal nodes supplied the label
	// (or an LI1-equivalent one).
	Origins []string
	// Rule is the logical inference (2–5) that completed the coverage; the
	// base case — a single source node covering X exactly — counts under
	// LI 2 like any other exact cover.
	Rule int
	// Alternates are the other display forms merged into this candidate
	// (equivalent labels across interfaces, LI1-merged labels), most
	// descriptive first. The assignment phase switches to an alternate
	// when the primary form collides with a sibling field's name.
	Alternates []string
	// Descriptive is the content-word count, used to rank candidates.
	Descriptive int
}

// potential is an intermediate record: an equivalence class of labeled
// source internal nodes whose descendant clusters all fall inside the
// global node's leaf set X.
type potential struct {
	label    string          // display form (most descriptive variant seen)
	forms    map[string]bool // every display form merged into this potential
	origins  map[string]bool // interfaces contributing nodes
	coverage map[string]bool // union of the nodes' descendant cluster sets
	extended map[string]bool // coverage after hypernymy propagation
}

// sourceUnit is a labeled internal node of a source tree, reduced to its
// cluster set.
type sourceUnit struct {
	iface    string
	label    string
	clusters map[string]bool
}

// collectSourceUnits lists every labeled internal node of the source trees
// with its descendant cluster set.
func collectSourceUnits(sources []*schema.Tree) []sourceUnit {
	var units []sourceUnit
	for _, t := range sources {
		for _, n := range t.InternalNodes() {
			if strings.TrimSpace(n.Label) == "" {
				continue
			}
			set := n.LeafClusters()
			if len(set) == 0 {
				continue
			}
			units = append(units, sourceUnit{iface: t.Interface, label: n.Label, clusters: set})
		}
	}
	return units
}

// candidateLabels computes the candidate labels of a global internal node
// whose descendant leaves are the clusters in X (§5.1), together with the
// number of potential labels examined (Definition 8 distinguishes a node
// with no potential labels — benignly unlabelable — from a node whose
// potential labels all fail to cover X, which makes the whole interface
// inconsistent). The three scenarios are applied in combination, as in
// Figure 7: LI 2 merges the coverage of equal labels across interfaces,
// LI 1 merges semantically equivalent labels, LI 3/LI 4 extend a label's
// coverage down its hypernymy hierarchy, and LI 5 extends the meaning of a
// label over dependent concepts. A label becomes a candidate when its
// extended coverage reaches X.
func (s *Semantics) candidateLabels(x map[string]bool, units []sourceUnit,
	m *cluster.Mapping, opts SolverOptions) ([]CandidateLabel, int) {

	// Potential labels: labeled source nodes whose cluster sets are inside X.
	var pots []*potential
	for _, u := range units {
		if !subsetSet(u.clusters, x) {
			continue
		}
		var found *potential
		for _, p := range pots {
			if s.Equivalent(p.label, u.label) {
				found = p
				break
			}
		}
		if found == nil {
			found = &potential{
				label:    u.label,
				forms:    map[string]bool{},
				origins:  map[string]bool{},
				coverage: map[string]bool{},
			}
			pots = append(pots, found)
		} else if s.ContentWordCount(u.label) > s.ContentWordCount(found.label) {
			found.label = u.label
		}
		found.forms[u.label] = true
		found.origins[u.iface] = true
		for c := range u.clusters {
			found.coverage[c] = true
		}
	}
	if len(pots) == 0 {
		return nil, 0
	}

	// LI 1: a label that is a hypernym of another label whose coverage
	// contains its own is semantically equivalent to it in this domain;
	// merge the two potentials, keeping the more descriptive display form.
	for merged := true; merged; {
		merged = false
		for i := 0; i < len(pots) && !merged; i++ {
			for j := 0; j < len(pots) && !merged; j++ {
				if i == j {
					continue
				}
				a, b := pots[i], pots[j]
				if s.Relate(a.label, b.label) == RelHypernym && subsetSet(a.coverage, b.coverage) {
					opts.Counters.Add(1)
					// Keep the more descriptive form (the hyponym's).
					if s.ContentWordCount(b.label) >= s.ContentWordCount(a.label) {
						a.label = b.label
					}
					for f := range b.forms {
						a.forms[f] = true
					}
					for c := range b.coverage {
						a.coverage[c] = true
					}
					for o := range b.origins {
						a.origins[o] = true
					}
					pots = append(pots[:j], pots[j+1:]...)
					merged = true
				}
			}
		}
	}

	// LI 3 / LI 4: propagate coverage up the hypernymy hierarchy among the
	// potentials; a hypernym semantically covers the union of its own and
	// its (transitive) hyponyms' leaf sets.
	for _, p := range pots {
		p.extended = map[string]bool{}
		for c := range p.coverage {
			p.extended[c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range pots {
			for _, q := range pots {
				if p == q || s.Relate(p.label, q.label) != RelHypernym {
					continue
				}
				for c := range q.extended {
					if !p.extended[c] {
						p.extended[c] = true
						changed = true
					}
				}
			}
		}
	}
	// contributors(p) counts the distinct hyponym potentials whose coverage
	// extends p beyond its own leaf sets: one pairwise extension is LI 3,
	// a hierarchy pooling several hyponyms is LI 4.
	contributors := func(p *potential) int {
		n := 0
		for _, q := range pots {
			if p == q || s.Relate(p.label, q.label) != RelHypernym {
				continue
			}
			for c := range q.extended {
				if !p.coverage[c] {
					n++
					break
				}
			}
		}
		return n
	}

	var out []CandidateLabel
	for _, p := range pots {
		rule := 0
		switch {
		case sameSet(p.coverage, x):
			rule = 2
		case sameSet(p.extended, x):
			if contributors(p) <= 1 {
				rule = 3
				opts.Counters.Add(3)
			} else {
				rule = 4
				opts.Counters.Add(4)
			}
		default:
			// LI 5: the uncovered remainder Z may be characterized by a
			// subset W of the covered part Y.
			if s.extendMeaning(p.extended, x, units, m, opts) {
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

// newCandidate renders one surviving potential as a candidate label:
// origins sorted, the other display forms as alternates, most descriptive
// first.
func (s *Semantics) newCandidate(label string, forms, origins map[string]bool, rule int) CandidateLabel {
	origs := make([]string, 0, len(origins))
	for o := range origins {
		origs = append(origs, o)
	}
	sort.Strings(origs)
	var alternates []string
	for f := range forms {
		if f != label {
			alternates = append(alternates, f)
		}
	}
	sort.Slice(alternates, func(i, j int) bool {
		di, dj := s.ContentWordCount(alternates[i]), s.ContentWordCount(alternates[j])
		if di != dj {
			return di > dj
		}
		return alternates[i] < alternates[j]
	})
	return CandidateLabel{
		Label:       label,
		Origins:     origs,
		Rule:        rule,
		Alternates:  alternates,
		Descriptive: s.ContentWordCount(label),
	}
}

// rankCandidates orders candidates most descriptive first, then by origin
// count, then by label.
func rankCandidates(out []CandidateLabel) {
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Descriptive != out[j].Descriptive {
			return out[i].Descriptive > out[j].Descriptive
		}
		if len(out[i].Origins) != len(out[j].Origins) {
			return len(out[i].Origins) > len(out[j].Origins)
		}
		return out[i].Label < out[j].Label
	})
}

// extendMeaning implements LI 5 (§5.1.3): with Y the covered clusters and
// Z = X − Y, the label's meaning extends over Z if Z is characterized by a
// nonempty W ⊆ Y, i.e. either (1) the instances of the fields in Z are a
// subset of the instances of the fields in W, or (2) some source internal
// node has exactly W ∪ Z as descendant leaves and its label's content words
// are a subset of the content words of W's field labels (the Make/Model ⊃
// Keywords configuration of Figure 8).
func (s *Semantics) extendMeaning(y, x map[string]bool, units []sourceUnit,
	m *cluster.Mapping, opts SolverOptions) bool {

	var z []string
	for c := range x {
		if !y[c] {
			z = append(z, c)
		}
	}
	if len(z) == 0 || len(z) == len(x) {
		return false
	}

	// Condition (1): instance containment, available only with instances.
	// Every field of Z must carry instances — a field without a predefined
	// domain cannot be shown to be characterized by Y, and partial overlap
	// of generic vocabularies (two month selectors) must not trigger the
	// extension.
	if opts.UseInstances && allHaveInstances(m, z) {
		zInst := unionInstances(m, z)
		if len(zInst) > 0 {
			var yNames []string
			for c := range y {
				yNames = append(yNames, c)
			}
			if subsetFold(zInst, unionInstances(m, yNames)) {
				return true
			}
		}
	}

	// Condition (2): a source node over W ∪ Z whose label's content words
	// come from W's field labels.
	zSet := make(map[string]bool, len(z))
	for _, c := range z {
		zSet[c] = true
	}
	for _, u := range units {
		if !subsetSet(zSet, u.clusters) || !subsetSet(u.clusters, x) {
			continue
		}
		w := make(map[string]bool)
		for c := range u.clusters {
			if !zSet[c] {
				w[c] = true
			}
		}
		if len(w) == 0 || !subsetSet(w, y) {
			continue
		}
		// Content words of the unit's label vs the union of W's field
		// labels' content words: the label must be about W ("Make/Model"
		// over Make, Model, Keywords), and must NOT be equally about Z —
		// a label like "Drop-off" whose word also prefixes Z's own field
		// labels ("Drop-off City") groups peers, it does not subordinate
		// them.
		labelWords := s.ContentWords(u.label)
		if len(labelWords) == 0 ||
			!subsetSorted(labelWords, fieldContentWords(s, m, w)) {
			continue
		}
		zWords := fieldContentWords(s, m, zSet)
		if len(zWords) > 0 && subsetSorted(labelWords, zWords) {
			continue
		}
		return true
	}
	return false
}

// fieldContentWords unions the content words of all labels of the given
// clusters, sorted and deduplicated.
func fieldContentWords(s *Semantics, m *cluster.Mapping, set map[string]bool) []string {
	var words []string
	for c := range set {
		cl := m.Get(c)
		if cl == nil {
			continue
		}
		for _, l := range cl.Labels() {
			words = append(words, s.ContentWords(l)...)
		}
	}
	sort.Strings(words)
	return dedupSorted(words)
}

// allHaveInstances reports whether every named cluster carries instances:
// some member leaf of each has a non-empty instance list.
func allHaveInstances(m *cluster.Mapping, names []string) bool {
	for _, n := range names {
		c := m.Get(n)
		if c == nil || !slices.ContainsFunc(c.Members, func(mem cluster.Member) bool {
			return len(mem.Leaf.Instances) > 0
		}) {
			return false
		}
	}
	return true
}

// unionInstances unions the instances of all members of the named clusters.
func unionInstances(m *cluster.Mapping, names []string) []string {
	var out []string
	seen := make(map[string]bool)
	for _, n := range names {
		c := m.Get(n)
		if c == nil {
			continue
		}
		for _, v := range c.Instances("") {
			k := strings.ToLower(v)
			if !seen[k] {
				seen[k] = true
				out = append(out, v)
			}
		}
	}
	return out
}

func subsetSet(a, b map[string]bool) bool {
	for x := range a {
		if !b[x] {
			return false
		}
	}
	return true
}

func sameSet(a, b map[string]bool) bool {
	return len(a) == len(b) && subsetSet(a, b)
}

func subsetSorted(a, b []string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i] > b[j]:
			j++
		default:
			return false
		}
	}
	return i == len(a)
}

func dedupSorted(s []string) []string {
	out := s[:0:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
