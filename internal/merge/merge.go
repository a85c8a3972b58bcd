// Package merge implements the structural substrate of the pipeline: the
// fields-grouping of §2.2 and the merge algorithm of §2.3 (the companion
// ICDE'06 work [8] the paper builds on). It integrates the source schema
// trees of a domain into one unlabeled integrated schema tree with the two
// properties the naming algorithm relies on:
//
//   - ancestor–descendant relationships present in individual schema trees
//     are preserved whenever they are mutually compatible, and
//   - grouping constraints are satisfied as much as possible: fields that
//     form a semantic unit in a source stay together in the integrated
//     interface.
//
// The construction works over *clusters*: every source leaf is identified
// with its cluster, each source internal node contributes a "unit" (the set
// of clusters below it), and a maximal laminar (non-crossing) family of
// units — preferring units observed in more sources — becomes the internal
// nodes of the integrated tree. Sibling order follows the average position
// of the fields on the source interfaces, so the integrated interface reads
// in the order users expect.
package merge

import (
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

// Result is the outcome of integrating a domain.
type Result struct {
	// Tree is the integrated schema tree. Its leaves carry cluster names
	// and empty labels; the naming algorithm fills the labels in.
	Tree *schema.Tree
	// Groups are the regular groups (the partition G of §3): for each
	// internal node of the integrated tree with at least two leaf children,
	// those leaf children's clusters.
	Groups [][]*cluster.Cluster
	// Root lists the clusters whose fields are direct leaf children of the
	// root (C_root of §3), treated as a special group with loose
	// consistency constraints.
	Root []*cluster.Cluster
	// Isolated lists the clusters that are single leaf children of internal
	// nodes other than the root (C_int of §3).
	Isolated []*cluster.Cluster
	// LeafOf maps a cluster name to its leaf in the integrated tree.
	LeafOf map[string]*schema.Node
	// Mapping is the cluster mapping the integration was computed over.
	Mapping *cluster.Mapping
	// Sources are the (expanded) source trees.
	Sources []*schema.Tree
}

// unit is a candidate internal node of the integrated tree: a set of
// clusters observed together under one source internal node.
type unit struct {
	key      string // canonical sorted key
	clusters map[string]bool
	support  int // number of source internal nodes exhibiting exactly this set
	size     int
	// occurrences are the source internal nodes that contributed this unit
	// (after a union, the nodes of all fragments). They provide the
	// evidence for keeping nested units as hierarchy.
	occurrences []occurrence
}

// occurrence ties a unit to a concrete internal node of a source tree.
type occurrence struct {
	tree *schema.Tree
	node *schema.Node
}

// Merge integrates the given source trees. The trees must already have 1:m
// correspondences expanded (cluster.ExpandOneToMany) and every leaf must
// carry a cluster name; m must be the mapping derived from the same trees.
// Merge checks all of this and then runs MergeContext.
func Merge(trees []*schema.Tree, m *cluster.Mapping) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	for _, t := range trees {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		for _, leaf := range t.Leaves() {
			if len(leaf.MultiClusters) > 0 {
				return nil, fmt.Errorf("merge: %s has unexpanded 1:m leaf %q", t.Interface, leaf.Label)
			}
		}
	}
	return MergeContext(context.Background(), trees, m)
}

// MergeContext is Merge with cooperative cancellation: the laminar-family
// construction — the merge's only super-linear loop — checks ctx between
// union steps and returns ctx.Err() once the context is done. It trusts
// its inputs as the pipeline hands them over: trees that passed
// Tree.Validate before their 1:m leaves were expanded, and a mapping
// cluster.FromTrees built from them (which rejects unexpanded leaves), or
// a subset of its clusters.
func MergeContext(ctx context.Context, trees []*schema.Tree, m *cluster.Mapping) (*Result, error) {
	if len(trees) == 0 {
		return nil, errors.New("merge: no source trees")
	}

	universe := make(map[string]bool, len(m.Clusters))
	for _, c := range m.Clusters {
		universe[c.Name] = true
	}
	if len(universe) == 0 {
		return nil, errors.New("merge: mapping has no clusters")
	}

	units := collectUnits(trees, universe)
	laminar, err := selectLaminar(ctx, units, len(universe))
	if err != nil {
		return nil, err
	}
	pos := averagePositions(trees)
	root := buildTree(laminar, universe, pos)
	tree := &schema.Tree{Interface: "integrated", Root: root}

	res := &Result{Tree: tree, LeafOf: make(map[string]*schema.Node), Mapping: m, Sources: trees}
	tree.Root.Walk(func(n *schema.Node) bool {
		if n.IsLeaf() && n.Cluster != "" {
			res.LeafOf[n.Cluster] = n
		}
		return true
	})
	classify(res)
	return res, nil
}

// collectUnits gathers the cluster sets under every internal node of every
// source tree (the root excluded: its set is the whole interface, which
// contributes no grouping information).
func collectUnits(trees []*schema.Tree, universe map[string]bool) map[string]*unit {
	units := make(map[string]*unit)
	for _, t := range trees {
		for _, n := range t.InternalNodes() {
			set := n.LeafClusters()
			if len(set) < 2 {
				continue // a single field imposes no grouping constraint
			}
			filtered := set
			for c := range set {
				if !universe[c] {
					// Out-of-universe clusters (pruned as rare) are the
					// exception, so the filtered copy is only built when
					// one actually occurs; LeafClusters returns a fresh
					// map, so trimming it in place would also be safe,
					// but the copy keeps this loop obviously local.
					filtered = make(map[string]bool, len(set))
					for c := range set {
						if universe[c] {
							filtered[c] = true
						}
					}
					break
				}
			}
			if len(filtered) < 2 {
				continue
			}
			k := key(filtered)
			u := units[k]
			if u == nil {
				u = &unit{key: k, clusters: filtered, size: len(filtered)}
				units[k] = u
			}
			u.support++
			u.occurrences = append(u.occurrences, occurrence{t, n})
		}
	}
	return units
}

func key(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for c := range set {
		names = append(names, c)
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

// selectLaminar turns the observed units into a laminar (non-crossing)
// family by repeatedly replacing two crossing units with their union: two
// groups sharing a field are fragments of one semantic unit of the
// integrated interface (this is how the group of Table 2 comes to span
// clusters no single source covers). Units nested by containment survive as
// hierarchy (super-groups). Units covering the entire universe are
// redundant with the root and dropped.
func selectLaminar(ctx context.Context, units map[string]*unit, universeSize int) ([]*unit, error) {
	family, err := unionCrossing(ctx, units)
	if err != nil {
		return nil, err
	}
	out := family[:0]
	for _, u := range family {
		if u.size < universeSize {
			out = append(out, u)
		}
	}
	return dropUnobservedNesting(out), nil
}

// unionCrossing runs the union steps of selectLaminar and returns the
// resulting family sorted by key.
//
// The union order matters: the laminar family is not unique, so the result
// is pinned to one deterministic sequence — at every step, merge the
// lexicographically smallest crossing pair (keyA, keyB), keyA < keyB.
// Candidate units wait in a min-heap in key order; each unit enters it
// once, when it is created, and the heap holds every live unit that has a
// crossing partner above it. A popped live unit a is therefore crossed
// only by units above it (a smaller one would still be in the heap and
// would have been popped first), so its smallest crossing partner b,
// found through a cluster→units inverted index, makes (a, b) the smallest
// crossing pair; a popped unit without a partner is dropped. A union keeps
// that invariant without putting any dropped unit back: the new unit
// w = a ∪ b sorts below b, since the lowest cluster where a and b differ
// is in a (so in w) and b holds a cluster above it. A dropped unit x that
// crosses w crosses a or b (a and b overlap), and all of x's partners sort
// below x, so x sorts above b (b is a's smallest partner) and so above w.
func unionCrossing(ctx context.Context, units map[string]*unit) ([]*unit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Intern cluster names in sorted order so ID order mirrors name order:
	// the lexicographic order of two sorted ID slices is then the order of
	// the units' joined-name keys (names are separator-free).
	nameSet := make(map[string]struct{})
	for _, u := range units {
		for c := range u.clusters {
			nameSet[c] = struct{}{}
		}
	}
	names := make([]string, 0, len(nameSet))
	for c := range nameSet {
		names = append(names, c)
	}
	sort.Strings(names)
	id := make(map[string]int32, len(names))
	for i, c := range names {
		id[c] = int32(i)
	}

	l := &unionState{inv: make([][]*lamUnit, len(names))}
	work := make(map[string]*lamUnit, len(units))
	var buf []byte
	for _, u := range units {
		set := make([]int32, 0, u.size)
		for c := range u.clusters {
			set = append(set, id[c])
		}
		slices.Sort(set)
		buf = appendIDs(buf[:0], set)
		w := &lamUnit{set: set, key: string(buf), support: u.support,
			occurrences: u.occurrences, alive: true}
		work[w.key] = w
		l.add(w)
	}

	for len(l.heap) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := heap.Pop(&l.heap).(*lamUnit)
		if !a.alive {
			continue
		}
		b := l.partner(a)
		if b == nil {
			continue
		}
		a.alive, b.alive = false, false
		delete(work, a.key)
		delete(work, b.key)
		merged := unionIDs(a.set, b.set)
		buf = appendIDs(buf[:0], merged)
		if ex, ok := work[string(buf)]; ok {
			// The union coincides with a live unit: its set, and therefore
			// its crossing partners, are unchanged, so only the evidence
			// is folded in.
			ex.support += a.support + b.support
			ex.occurrences = append(ex.occurrences, a.occurrences...)
			ex.occurrences = append(ex.occurrences, b.occurrences...)
			continue
		}
		w := &lamUnit{set: merged, key: string(buf), support: a.support + b.support,
			occurrences: append(append([]occurrence(nil),
				a.occurrences...), b.occurrences...), alive: true}
		work[w.key] = w
		l.add(w)
	}

	out := make([]*unit, 0, len(work))
	for _, w := range work {
		clusters := make(map[string]bool, len(w.set))
		ns := make([]string, len(w.set))
		for i, c := range w.set {
			clusters[names[c]] = true
			ns[i] = names[c]
		}
		out = append(out, &unit{key: strings.Join(ns, "\x00"), clusters: clusters,
			support: w.support, size: len(w.set), occurrences: w.occurrences})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// lamUnit is the working form of a unit inside unionCrossing.
type lamUnit struct {
	set         []int32 // sorted cluster IDs
	key         string  // appendIDs(set): the work-map dedup key
	support     int
	occurrences []occurrence
	alive       bool
	seen        int // stamp of the last partner search that met it
	shared      int // clusters it shares with that search's unit
}

// unionState is unionCrossing's candidate heap and inverted index.
type unionState struct {
	heap  unitHeap
	inv   [][]*lamUnit // cluster ID → units holding it
	stamp int
	met   []*lamUnit // reused: the units one partner search meets
}

// add indexes a new live unit and makes it a candidate.
func (l *unionState) add(u *lamUnit) {
	for _, c := range u.set {
		l.inv[c] = append(l.inv[c], u)
	}
	heap.Push(&l.heap, u)
}

// partner returns the smallest live unit crossing a, or nil. It walks the
// index lists of a's clusters and drops the dead units from them, so a
// search costs what the live overlap does. The walk meets a unit v once
// for every cluster v shares with a, so v crosses a exactly when that
// count is below both sizes (a itself shares all of its clusters).
func (l *unionState) partner(a *lamUnit) *lamUnit {
	l.stamp++
	met := l.met[:0]
	for _, c := range a.set {
		list := l.inv[c]
		n := 0
		for _, v := range list {
			if !v.alive {
				continue
			}
			list[n] = v
			n++
			if v.seen != l.stamp {
				v.seen, v.shared = l.stamp, 0
				met = append(met, v)
			}
			v.shared++
		}
		clear(list[n:])
		l.inv[c] = list[:n]
	}
	var best *lamUnit
	for _, v := range met {
		if v.shared < len(a.set) && v.shared < len(v.set) &&
			(best == nil || slices.Compare(v.set, best.set) < 0) {
			best = v
		}
	}
	l.met = met
	return best
}

// unitHeap is a min-heap of candidate units in set order (container/heap).
// slices.Compare orders sorted ID slices lexicographically, a proper
// prefix first: the order of the units' keys.
type unitHeap []*lamUnit

func (h unitHeap) Len() int           { return len(h) }
func (h unitHeap) Less(i, j int) bool { return slices.Compare(h[i].set, h[j].set) < 0 }
func (h unitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *unitHeap) Push(x any)        { *h = append(*h, x.(*lamUnit)) }
func (h *unitHeap) Pop() any {
	s := *h
	u := s[len(s)-1]
	s[len(s)-1] = nil
	*h = s[:len(s)-1]
	return u
}

// unionIDs merges two sorted ID sets into a fresh sorted set.
func unionIDs(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// appendIDs appends the 4-byte little-endian encoding of a sorted ID set
// to buf: the set's dedup key.
func appendIDs(buf []byte, set []int32) []byte {
	for _, c := range set {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c))
	}
	return buf
}

// dropUnobservedNesting flattens containment relations that no source
// actually exhibits: a unit strictly contained in others survives only if
// some source shows one of its nodes as a strict descendant of a node of a
// container (real hierarchy, like the auto domain's Car Information ⊃ year
// range — the source with Car Information also exhibits the year pair as a
// nested subgroup). Fragments that merely happen to be subsets of a larger
// observed or unioned group (the aa Passengers pair inside the integrated
// passenger group) are absorbed instead of creating a spurious level.
func dropUnobservedNesting(units []*unit) []*unit {
	keep := make([]*unit, 0, len(units))
	for _, u := range units {
		contained := false
		evidenced := false
		for _, v := range units {
			if v == u || v.size <= u.size || !containsAll(v.clusters, u.clusters) {
				continue
			}
			contained = true
			if nestingObserved(u, v) {
				evidenced = true
				break
			}
		}
		if !contained || evidenced {
			keep = append(keep, u)
		}
	}
	return keep
}

// nestingObserved reports whether some source tree shows an occurrence node
// of inner as a strict descendant of an occurrence node of outer.
func nestingObserved(inner, outer *unit) bool {
	for _, oi := range inner.occurrences {
		for _, oo := range outer.occurrences {
			if oi.tree != oo.tree || oi.node == oo.node {
				continue
			}
			found := false
			oo.node.Walk(func(n *schema.Node) bool {
				if n == oi.node && n != oo.node {
					found = true
				}
				return !found
			})
			if found {
				return true
			}
		}
	}
	return false
}

// averagePositions computes, per cluster, the average normalized position
// (0..1) of its fields across the source interfaces. Clusters never seen
// get position 1 so they sort last.
func averagePositions(trees []*schema.Tree) map[string]float64 {
	sum := make(map[string]float64)
	count := make(map[string]int)
	for _, t := range trees {
		leaves := t.Leaves()
		if len(leaves) == 0 {
			continue
		}
		for i, leaf := range leaves {
			if leaf.Cluster == "" {
				continue
			}
			p := 0.0
			if len(leaves) > 1 {
				p = float64(i) / float64(len(leaves)-1)
			}
			sum[leaf.Cluster] += p
			count[leaf.Cluster]++
		}
	}
	pos := make(map[string]float64, len(sum))
	for c, s := range sum {
		pos[c] = s / float64(count[c])
	}
	return pos
}

// buildTree materializes the laminar family as a tree. Each accepted unit
// becomes an internal node whose parent is the smallest accepted unit
// strictly containing it (or the root). Each cluster becomes a leaf under
// the smallest unit containing it (or the root). Children are ordered by
// the average source position of their clusters.
func buildTree(accepted []*unit, universe map[string]bool, pos map[string]float64) *schema.Node {
	// Sort by size ascending so parents (larger) are located by scanning up.
	bys := append([]*unit(nil), accepted...)
	sort.Slice(bys, func(i, j int) bool {
		if bys[i].size != bys[j].size {
			return bys[i].size < bys[j].size
		}
		return bys[i].key < bys[j].key
	})
	nodes := make(map[string]*schema.Node, len(bys))
	for _, u := range bys {
		nodes[u.key] = &schema.Node{}
	}
	root := &schema.Node{}

	parentOf := func(u *unit) *schema.Node {
		var best *unit
		for _, v := range bys {
			if v == u || v.size <= u.size {
				continue
			}
			if containsAll(v.clusters, u.clusters) {
				if best == nil || v.size < best.size {
					best = v
				}
			}
		}
		if best == nil {
			return root
		}
		return nodes[best.key]
	}
	clusterParent := func(c string) *schema.Node {
		var best *unit
		for _, v := range bys {
			if v.clusters[c] && (best == nil || v.size < best.size) {
				best = v
			}
		}
		if best == nil {
			return root
		}
		return nodes[best.key]
	}

	type childEntry struct {
		node *schema.Node
		pos  float64
	}
	children := make(map[*schema.Node][]childEntry)
	unitPos := func(u *unit) float64 {
		// Sum in sorted cluster order: float addition is not associative,
		// so summing in map-iteration order yields ULP-different averages
		// across runs, which can flip the sibling sort between children
		// with near-equal positions.
		cs := make([]string, 0, len(u.clusters))
		for c := range u.clusters {
			cs = append(cs, c)
		}
		if len(cs) == 0 {
			return 1
		}
		sort.Strings(cs)
		s := 0.0
		for _, c := range cs {
			s += pos[c]
		}
		return s / float64(len(cs))
	}
	for _, u := range bys {
		p := parentOf(u)
		children[p] = append(children[p], childEntry{nodes[u.key], unitPos(u)})
	}
	names := make([]string, 0, len(universe))
	for c := range universe {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, c := range names {
		p := clusterParent(c)
		leafPos, ok := pos[c]
		if !ok {
			leafPos = 1
		}
		children[p] = append(children[p], childEntry{&schema.Node{Cluster: c}, leafPos})
	}
	var attach func(n *schema.Node)
	attach = func(n *schema.Node) {
		cs := children[n]
		sort.SliceStable(cs, func(i, j int) bool {
			if cs[i].pos != cs[j].pos {
				return cs[i].pos < cs[j].pos
			}
			// Deterministic tiebreak: leaves by cluster name, units after.
			return cs[i].node.Cluster < cs[j].node.Cluster
		})
		for _, c := range cs {
			n.Children = append(n.Children, c.node)
			attach(c.node)
		}
	}
	attach(root)
	return root
}

func containsAll(big, small map[string]bool) bool {
	for x := range small {
		if !big[x] {
			return false
		}
	}
	return true
}

// classify splits the clusters into C_groups, C_root and C_int based on
// their placement in the integrated tree (§3).
func classify(res *Result) {
	m := res.Mapping
	var walk func(n *schema.Node, isRoot bool)
	walk = func(n *schema.Node, isRoot bool) {
		var leafKids []*cluster.Cluster
		for _, c := range n.Children {
			if c.IsLeaf() {
				if cl := m.Get(c.Cluster); cl != nil {
					leafKids = append(leafKids, cl)
				}
			} else {
				walk(c, false)
			}
		}
		switch {
		case isRoot:
			res.Root = append(res.Root, leafKids...)
		case len(leafKids) >= 2:
			res.Groups = append(res.Groups, leafKids)
		case len(leafKids) == 1:
			res.Isolated = append(res.Isolated, leafKids[0])
		}
	}
	walk(res.Tree.Root, true)
}

// GroupParent returns the integrated-tree internal node whose leaf children
// are exactly the given group (identified by its first cluster's leaf).
func (r *Result) GroupParent(group []*cluster.Cluster) *schema.Node {
	if len(group) == 0 {
		return nil
	}
	leaf := r.LeafOf[group[0].Name]
	if leaf == nil {
		return nil
	}
	return r.Tree.Root.Parent(leaf)
}

// Stats summarizes the integrated interface for Table 6 columns 6-11.
type Stats struct {
	Leaves         int
	Groups         int
	IsolatedLeaves int
	RootLeaves     int
	InternalNodes  int
	Depth          int
}

// Stats computes the integrated-interface statistics.
func (r *Result) Stats() Stats {
	leaves, internal := r.Tree.CountNodes()
	return Stats{
		Leaves:         leaves,
		Groups:         len(r.Groups),
		IsolatedLeaves: len(r.Isolated),
		RootLeaves:     len(r.Root),
		InternalNodes:  internal,
		Depth:          r.Tree.Depth(),
	}
}
