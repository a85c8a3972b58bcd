package naming

import (
	"slices"
	"sort"
	"strings"

	"qilabel/internal/cluster"
)

// LabelIsolated elects the label of an isolated cluster (§4.4) — and, with
// the same machinery, of any cluster whose label must be drawn from its own
// members. It is a variant of the representative-attribute-name algorithm
// of WISE-Integrator [12]: hypernymy hierarchies are built over the
// distinct member labels; the roots are the most general labels; among the
// roots the paper replaces the majority rule by the MOST DESCRIPTIVE rule.
// When instances are available, LI 6 reconciles "most general" with "most
// descriptive" (a general root bounded to a descriptive hyponym with the
// same domain is replaced by it) and LI 7 discards labels that are data
// values of sibling fields.
func (s *Semantics) LabelIsolated(c *cluster.Cluster, opts SolverOptions) string {
	return s.labelIsolated(c, memberFacts(c), opts)
}

// labelIsolated is LabelIsolated over the cluster's precomputed facts.
func (s *Semantics) labelIsolated(c *cluster.Cluster, f *clusterFacts, opts SolverOptions) string {
	labels := f.labels
	if len(labels) == 0 {
		return ""
	}
	freq := c.LabelFrequency()

	if opts.UseInstances && len(labels) > 1 {
		labels = s.discardValueLabels(c, f, labels, opts.Counters)
	}
	if len(labels) == 1 {
		return labels[0]
	}

	roots := s.hierarchyRoots(labels)

	if opts.UseInstances {
		// Each label's domain is unioned once, however many roots read it.
		domains := make(map[string][]string, len(labels))
		domain := func(l string) []string {
			d, ok := domains[l]
			if !ok {
				d = c.Instances(l)
				domains[l] = d
			}
			return d
		}
		for i, r := range roots {
			if repl := s.reconcileLI6(domain, r, labels, opts.Counters); repl != "" {
				roots[i] = repl
			}
		}
	}

	// Most descriptive root wins; frequency breaks ties; the lexicographic
	// order keeps the election deterministic.
	sort.SliceStable(roots, func(i, j int) bool {
		di, dj := s.ContentWordCount(roots[i]), s.ContentWordCount(roots[j])
		if di != dj {
			return di > dj
		}
		if freq[roots[i]] != freq[roots[j]] {
			return freq[roots[i]] > freq[roots[j]]
		}
		return roots[i] < roots[j]
	})
	return roots[0]
}

// hierarchyRoots builds the hypernymy hierarchies over the labels
// (Definition 1's hypernym relation) and returns their roots: the labels no
// other label is a hypernym of. In the paper's example {Class, Class of
// Ticket, Preferred Cabin, Flight Class}, the roots are Class (parent of
// Class of Ticket and Flight Class) and Preferred Cabin.
func (s *Semantics) hierarchyRoots(labels []string) []string {
	var roots []string
	for _, a := range labels {
		isRoot := true
		for _, b := range labels {
			if a == b {
				continue
			}
			if s.Relate(b, a) == RelHypernym {
				isRoot = false
				break
			}
		}
		if isRoot {
			roots = append(roots, a)
		}
	}
	if len(roots) == 0 {
		// Hypernymy cycles over equivalent labels: fall back to all labels
		// (a copy: callers reorder the roots, and labels may be a
		// cluster's facts).
		roots = slices.Clone(labels)
	}
	return roots
}

// reconcileLI6 implements LI 6 (§6.1.1): among the hyponyms of the root,
// look for a more descriptive label whose accumulated instance domain
// includes the root's domain; if found, the root's general meaning is
// bounded to that label in this domain, so the descriptive label replaces
// the root (Flight Class replaces Class in the airline domain). domain
// returns a label's domain(l).
func (s *Semantics) reconcileLI6(domain func(label string) []string, root string, labels []string, counters *Counters) string {
	rootDomain := domain(root)
	if len(rootDomain) == 0 {
		return ""
	}
	best := ""
	for _, h := range labels {
		if h == root || s.Relate(root, h) != RelHypernym {
			continue
		}
		if !subsetFold(rootDomain, domain(h)) {
			continue
		}
		if s.ContentWordCount(h) <= s.ContentWordCount(root) {
			continue
		}
		if best == "" || s.ContentWordCount(h) > s.ContentWordCount(best) {
			best = h
		}
	}
	if best != "" {
		counters.Add(6)
	}
	return best
}

// discardValueLabels implements LI 7 for a single cluster: labels occurring
// among the instances of sibling members are data values and are discarded,
// keeping at least one label. The facts rule most labels out without a
// scan of the members.
func (s *Semantics) discardValueLabels(c *cluster.Cluster, f *clusterFacts, labels []string, counters *Counters) []string {
	keep := labels[:0:0]
	for _, l := range labels {
		isValue := false
		for _, m := range c.Members {
			if isValue || !f.mayHaveValue(l) {
				break
			}
			if strings.EqualFold(strings.TrimSpace(m.Leaf.Label), l) {
				continue
			}
			isValue = slices.ContainsFunc(m.Leaf.Instances, func(inst string) bool {
				return strings.EqualFold(strings.TrimSpace(inst), l)
			})
		}
		if isValue && len(labels)-1 >= 1 {
			counters.Add(7)
			continue
		}
		keep = append(keep, l)
	}
	if len(keep) == 0 {
		return labels
	}
	return keep
}

// subsetFold reports whether every element of a occurs in b,
// case-insensitively. Both slices are small instance sets.
func subsetFold(a, b []string) bool {
	if len(a) == 0 {
		return true
	}
	set := make(map[string]bool, len(b))
	for _, x := range b {
		set[strings.ToLower(strings.TrimSpace(x))] = true
	}
	for _, x := range a {
		if !set[strings.ToLower(strings.TrimSpace(x))] {
			return false
		}
	}
	return true
}
