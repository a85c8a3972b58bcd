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
	// set is the cluster set as sorted cluster ranks: a cluster's rank is
	// its position in name order, so the lexicographic order of two sets is
	// the order of their joined-name keys (names are separator-free).
	set     []int32
	key     string // appendIDs(set): the dedup key
	support int    // number of source internal nodes exhibiting exactly this set
	// occurrences are the source internal nodes (Table.Nodes indexes) that
	// contributed this unit (after a union, the nodes of all fragments).
	// They provide the evidence for keeping nested units as hierarchy.
	occurrences []int32

	// unionCrossing's working state.
	alive  bool
	seen   int // stamp of the last partner search that met it
	shared int // clusters it shares with that search's unit
}

// MergeTable integrates the sources of a table whose mapping is derived
// (cluster.Table.DeriveMapping, then Prune), with cooperative
// cancellation: the laminar-family construction — the merge's only
// super-linear loop — checks ctx between union steps and returns ctx.Err()
// once the context is done. The universe is the mapping's clusters.
func MergeTable(ctx context.Context, tab *cluster.Table) (*Result, error) {
	if len(tab.Trees) == 0 {
		return nil, errors.New("merge: no source trees")
	}
	m := tab.Mapping
	n := len(m.Clusters)
	if n == 0 {
		return nil, errors.New("merge: mapping has no clusters")
	}
	byRank, rank := ranks(tab.Names)
	laminar, err := selectLaminar(ctx, tab.Nodes, collectUnits(tab, rank), n)
	if err != nil {
		return nil, err
	}
	res := &Result{LeafOf: make(map[string]*schema.Node, n), Mapping: m, Sources: tab.Trees}
	root := buildTree(laminar, byRank, averagePositions(tab), tab.Names, res.LeafOf)
	res.Tree = &schema.Tree{Interface: "integrated", Root: root}
	classify(res)
	return res, nil
}

// ranks numbers the universe's clusters, whose names are names, in name
// order: byRank lists their IDs by rank, and rank inverts it.
func ranks(names []string) (byRank, rank []int32) {
	byRank = make([]int32, len(names))
	for i := range byRank {
		byRank[i] = int32(i)
	}
	slices.SortFunc(byRank, func(a, b int32) int { return strings.Compare(names[a], names[b]) })
	rank = make([]int32, len(names))
	for r, id := range byRank {
		rank[id] = int32(r)
	}
	return byRank, rank
}

// collectUnits gathers the cluster sets under every internal node of every
// source (the root excluded: its set is the whole interface, which
// contributes no grouping information), keyed by appendIDs of the set.
// rank maps the universe's cluster IDs to their ranks.
func collectUnits(tab *cluster.Table, rank []int32) map[string]*unit {
	units := make(map[string]*unit)
	var set []int32
	var buf []byte
	for ni, nd := range tab.Nodes {
		set = set[:0]
		for _, l := range tab.Leaves[nd.Lo:nd.Hi] {
			if l.Cluster >= 0 {
				set = append(set, rank[l.Cluster])
			}
		}
		slices.Sort(set)
		if set = slices.Compact(set); len(set) < 2 {
			continue // a single field imposes no grouping constraint
		}
		buf = appendIDs(buf[:0], set)
		u := units[string(buf)]
		if u == nil {
			u = &unit{set: slices.Clone(set), key: string(buf), alive: true}
			units[u.key] = u
		}
		u.support++
		u.occurrences = append(u.occurrences, int32(ni))
	}
	return units
}

// selectLaminar turns the observed units into a laminar (non-crossing)
// family by repeatedly replacing two crossing units with their union: two
// groups sharing a field are fragments of one semantic unit of the
// integrated interface (this is how the group of Table 2 comes to span
// clusters no single source covers). Units nested by containment survive as
// hierarchy (super-groups). Units covering the entire universe are
// redundant with the root and dropped.
func selectLaminar(ctx context.Context, nodes []cluster.Node, units map[string]*unit, universeSize int) ([]*unit, error) {
	family, err := unionCrossing(ctx, units, universeSize)
	if err != nil {
		return nil, err
	}
	out := family[:0]
	for _, u := range family {
		if len(u.set) < universeSize {
			out = append(out, u)
		}
	}
	return dropUnobservedNesting(nodes, out), nil
}

// unionCrossing runs the union steps of selectLaminar over units whose
// ranks are below universeSize and returns the resulting family sorted by
// set.
//
// The union order matters: the laminar family is not unique, so the result
// is pinned to one deterministic sequence — at every step, merge the
// lexicographically smallest crossing pair (setA, setB), setA < setB.
// Candidate units wait in a min-heap in set order; each unit enters it
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
func unionCrossing(ctx context.Context, work map[string]*unit, universeSize int) ([]*unit, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	l := &unionState{inv: make([][]*unit, universeSize)}
	for _, u := range work {
		l.add(u)
	}

	var buf []byte
	for len(l.heap) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a := heap.Pop(&l.heap).(*unit)
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
		w := &unit{set: merged, key: string(buf), support: a.support + b.support,
			occurrences: append(append([]int32(nil),
				a.occurrences...), b.occurrences...), alive: true}
		work[w.key] = w
		l.add(w)
	}

	out := make([]*unit, 0, len(work))
	for _, w := range work {
		out = append(out, w)
	}
	slices.SortFunc(out, func(a, b *unit) int { return slices.Compare(a.set, b.set) })
	return out, nil
}

// unionState is unionCrossing's candidate heap and inverted index.
type unionState struct {
	heap  unitHeap
	inv   [][]*unit // cluster rank → units holding it
	stamp int
	met   []*unit // reused: the units one partner search meets
}

// add indexes a new live unit and makes it a candidate.
func (l *unionState) add(u *unit) {
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
func (l *unionState) partner(a *unit) *unit {
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
	var best *unit
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
type unitHeap []*unit

func (h unitHeap) Len() int           { return len(h) }
func (h unitHeap) Less(i, j int) bool { return slices.Compare(h[i].set, h[j].set) < 0 }
func (h unitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *unitHeap) Push(x any)        { *h = append(*h, x.(*unit)) }
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

// containsIDs reports whether the sorted ID set big holds every member of
// the sorted ID set small.
func containsIDs(big, small []int32) bool {
	i := 0
	for _, x := range small {
		for i < len(big) && big[i] < x {
			i++
		}
		if i == len(big) || big[i] != x {
			return false
		}
		i++
	}
	return true
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
func dropUnobservedNesting(nodes []cluster.Node, units []*unit) []*unit {
	// A container of u holds u's first cluster: only the units holding it
	// are scanned, in order.
	holders := holdersOf(units)
	keep := make([]*unit, 0, len(units))
	for _, u := range units {
		contained := false
		evidenced := false
		for _, j := range holders[u.set[0]] {
			v := units[j]
			if v == u || len(v.set) <= len(u.set) || !containsIDs(v.set, u.set) {
				continue
			}
			contained = true
			if nestingObserved(nodes, u, v) {
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

// holdersOf lists, per cluster rank, the indexes of the units holding it,
// ascending.
func holdersOf(units []*unit) map[int32][]int32 {
	holders := make(map[int32][]int32)
	for j, u := range units {
		for _, c := range u.set {
			holders[c] = append(holders[c], int32(j))
		}
	}
	return holders
}

// nestingObserved reports whether some source tree shows an occurrence node
// of inner as a strict descendant of an occurrence node of outer: its leaf
// span lies inside the outer node's and it comes later in pre-order (a
// node and an ancestor can share a span, but the ancestor comes first).
// Spans of different sources never meet.
func nestingObserved(nodes []cluster.Node, inner, outer *unit) bool {
	for _, oi := range inner.occurrences {
		a := &nodes[oi]
		for _, oo := range outer.occurrences {
			if b := &nodes[oo]; oo < oi && b.Lo <= a.Lo && a.Hi <= b.Hi {
				return true
			}
		}
	}
	return false
}

// averagePositions computes, per cluster ID, the average normalized
// position (0..1) of its fields across the source interfaces; clusters
// without a field get -1.
func averagePositions(tab *cluster.Table) []float64 {
	sum := make([]float64, len(tab.Names))
	count := make([]int32, len(tab.Names))
	for _, src := range tab.Sources {
		n := src.LeafHi - src.LeafLo
		for i, leaf := range tab.Leaves[src.LeafLo:src.LeafHi] {
			if leaf.Cluster < 0 {
				continue
			}
			p := 0.0
			if n > 1 {
				p = float64(i) / float64(n-1)
			}
			sum[leaf.Cluster] += p
			count[leaf.Cluster]++
		}
	}
	for c, k := range count {
		if k == 0 {
			sum[c] = -1
		} else {
			sum[c] /= float64(k)
		}
	}
	return sum
}

// buildTree materializes the laminar family as a tree. Each accepted unit
// becomes an internal node whose parent is the smallest accepted unit
// strictly containing it (or the root). Each cluster becomes a leaf under
// the smallest unit containing it (or the root), and is recorded in
// leafOf. Children are ordered by the average source position of their
// clusters. byRank lists the universe's cluster IDs in name order, pos
// holds averagePositions and names every ID's name.
func buildTree(accepted []*unit, byRank []int32, pos []float64, names []string, leafOf map[string]*schema.Node) *schema.Node {
	// Sort by size ascending so parents (larger) are located by scanning up:
	// the first container met is a smallest one.
	bys := append([]*unit(nil), accepted...)
	slices.SortFunc(bys, func(a, b *unit) int {
		if len(a.set) != len(b.set) {
			return len(a.set) - len(b.set)
		}
		return slices.Compare(a.set, b.set)
	})
	nodes := make([]*schema.Node, len(bys))
	for i := range bys {
		nodes[i] = &schema.Node{}
	}
	root := &schema.Node{}

	// A container of u holds u's first cluster, and a cluster's parent is
	// the first unit holding it.
	holders := holdersOf(bys)
	parentOf := func(i int) *schema.Node {
		u := bys[i]
		for _, j := range holders[u.set[0]] {
			if v := bys[j]; int(j) > i && len(v.set) > len(u.set) && containsIDs(v.set, u.set) {
				return nodes[j]
			}
		}
		return root
	}
	clusterParent := func(r int32) *schema.Node {
		if hs := holders[r]; len(hs) > 0 {
			return nodes[hs[0]]
		}
		return root
	}
	leafPos := func(r int32) float64 {
		if p := pos[byRank[r]]; p >= 0 {
			return p
		}
		return 1
	}

	type childEntry struct {
		node *schema.Node
		pos  float64
	}
	children := make(map[*schema.Node][]childEntry)
	for i, u := range bys {
		// Sum in name order, as the set lists the clusters: float addition
		// is not associative, so another order yields ULP-different
		// averages, which can flip the sibling sort between children with
		// near-equal positions.
		s := 0.0
		for _, r := range u.set {
			s += pos[byRank[r]]
		}
		p := parentOf(i)
		children[p] = append(children[p], childEntry{nodes[i], s / float64(len(u.set))})
	}
	for r, c := range byRank {
		leaf := &schema.Node{Cluster: names[c]}
		leafOf[leaf.Cluster] = leaf
		p := clusterParent(int32(r))
		children[p] = append(children[p], childEntry{leaf, leafPos(int32(r))})
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
