package cluster

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"qilabel/internal/schema"
)

// Table is the flat form of one pipeline run's expanded source trees, the
// per-leaf facts every stage reads: which cluster a field is in, its label
// and its instance set, and which internal nodes group it. It is built once
// per run, after 1:m expansion, and freed with the run; the trees stay the
// API and the output.
//
// Leaves and Nodes list every source's leaves and internal nodes (the root
// excluded) in pre-order, source after source. In an ordered tree the
// leaves under a node are consecutive in pre-order, so a node holds its
// leaves as the span Leaves[Lo:Hi], and its descendant cluster set (§2.3's
// unit, §5's X) is the set of the span's cluster IDs. Two spans of one
// table nest exactly when their nodes do, and spans of different sources
// never meet.
type Table struct {
	Trees   []*schema.Tree
	Sources []Source
	Leaves  []Leaf
	Nodes   []Node
	// Labels are the distinct labels of the run, in the order a pre-order
	// walk meets them: every non-empty node label, the roots' included, and
	// after a leaf's label its trimmed form when that differs and is not
	// empty. Label IDs index it.
	Labels []string
	// Sets are the distinct instance sets of the leaves, each value
	// trimmed and lower-cased, sorted and without repeats. Set ID 0 is the
	// empty set of a leaf without instances.
	Sets [][]string

	// Mapping is the mapping the cluster IDs were numbered against
	// (DeriveMapping, then Prune): ID i is Mapping.Clusters[i], and Names
	// lists the cluster name of every ID.
	Mapping *Mapping
	Names   []string
	// members[memberOff[i]:memberOff[i+1]] are the Leaves indexes of the
	// members of Mapping.Clusters[i], in member order.
	memberOff, members []int32
}

// Members returns the Leaves indexes of the members of the mapping's
// cluster id, in member order.
func (t *Table) Members(id int32) []int32 {
	return t.members[t.memberOff[id]:t.memberOff[id+1]]
}

// Source is one source interface of a Table: its leaves are
// Leaves[LeafLo:LeafHi] and its internal nodes Nodes[NodeLo:NodeHi].
// Ordinal numbers the distinct interface names, so two sources share an
// ordinal exactly when their Interface strings are equal.
type Source struct {
	Interface      string
	Ordinal        int32
	Label          int32 // the root's label ID, when the root is not a leaf
	LeafLo, LeafHi int32
	NodeLo, NodeHi int32
}

// Leaf is one field of a source. IDs are -1 where there is nothing to
// name: no cluster, an empty label, a blank trimmed label.
type Leaf struct {
	Node    *schema.Node
	Cluster int32 // index into Table.Names
	Label   int32 // the raw label's ID
	Trimmed int32 // the trimmed label's ID
	Set     int32 // the instance set's ID
	Source  int32
	Parent  int32 // index into Table.Nodes; -1 under the root
}

// Node is one internal node of a source, the root excluded.
type Node struct {
	Node   *schema.Node
	Label  int32 // the raw label's ID
	Lo, Hi int32 // its leaves: Table.Leaves[Lo:Hi]
	Source int32
	Parent int32 // -1 under the root
}

// NewTable lays the given expanded trees out as a table. Cluster IDs are
// unset (-1) until DeriveMapping numbers them.
func NewTable(trees []*schema.Tree) *Table {
	b := tableBuilder{
		t:      &Table{Trees: trees, Sources: make([]Source, len(trees)), Sets: [][]string{nil}},
		labels: make(map[string]int32),
		sets:   make(map[string]int32),
		raw:    make(map[string]int32),
	}
	ordinal := make(map[string]int32, len(trees))
	for s, tr := range trees {
		o, ok := ordinal[tr.Interface]
		if !ok {
			o = int32(len(ordinal))
			ordinal[tr.Interface] = o
		}
		src := &b.t.Sources[s]
		*src = Source{Interface: tr.Interface, Ordinal: o, Label: -1,
			LeafLo: int32(len(b.t.Leaves)), NodeLo: int32(len(b.t.Nodes))}
		b.source = int32(s)
		if tr.Root.IsLeaf() {
			b.leaf(tr.Root, -1)
		} else {
			src.Label = b.label(tr.Root.Label)
			for _, c := range tr.Root.Children {
				b.walk(c, -1)
			}
		}
		src.LeafHi, src.NodeHi = int32(len(b.t.Leaves)), int32(len(b.t.Nodes))
	}
	return b.t
}

type tableBuilder struct {
	t      *Table
	labels map[string]int32
	// sets files each set under its folded values; raw files it under a
	// leaf's instance list as given, so a list repeated across sources is
	// folded once.
	sets, raw map[string]int32
	source    int32
	key       []byte
	fold      []string
}

func (b *tableBuilder) walk(n *schema.Node, parent int32) {
	if n.IsLeaf() {
		b.leaf(n, parent)
		return
	}
	i := int32(len(b.t.Nodes))
	b.t.Nodes = append(b.t.Nodes, Node{Node: n, Label: b.label(n.Label),
		Lo: int32(len(b.t.Leaves)), Source: b.source, Parent: parent})
	for _, c := range n.Children {
		b.walk(c, i)
	}
	b.t.Nodes[i].Hi = int32(len(b.t.Leaves))
}

func (b *tableBuilder) leaf(n *schema.Node, parent int32) {
	l := Leaf{Node: n, Cluster: -1, Label: b.label(n.Label), Trimmed: -1,
		Set: b.set(n.Instances), Source: b.source, Parent: parent}
	if tr := strings.TrimSpace(n.Label); tr == n.Label {
		l.Trimmed = l.Label
	} else {
		l.Trimmed = b.label(tr)
	}
	b.t.Leaves = append(b.t.Leaves, l)
}

// label interns a label; "" has no ID.
func (b *tableBuilder) label(s string) int32 {
	if s == "" {
		return -1
	}
	id, ok := b.labels[s]
	if !ok {
		id = int32(len(b.t.Labels))
		b.labels[s] = id
		b.t.Labels = append(b.t.Labels, s)
	}
	return id
}

// set interns the folded form of an instance list.
func (b *tableBuilder) set(instances []string) int32 {
	if len(instances) == 0 {
		return 0
	}
	b.key = appendStrings(b.key[:0], instances)
	if id, ok := b.raw[string(b.key)]; ok {
		return id
	}
	rawKey := string(b.key)
	fold := b.fold[:0]
	for _, v := range instances {
		fold = append(fold, strings.ToLower(strings.TrimSpace(v)))
	}
	slices.Sort(fold)
	fold = slices.Compact(fold)
	b.fold = fold
	b.key = appendStrings(b.key[:0], fold)
	id, ok := b.sets[string(b.key)]
	if !ok {
		id = int32(len(b.t.Sets))
		b.sets[string(b.key)] = id
		b.t.Sets = append(b.t.Sets, slices.Clone(fold))
	}
	b.raw[rawKey] = id
	return id
}

// appendStrings appends each string with a length prefix, so distinct
// string lists never encode alike.
func appendStrings(buf []byte, ss []string) []byte {
	for _, v := range ss {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// DeriveMapping derives the mapping from the leaves' cluster annotations
// and numbers every leaf's cluster by its index in it. Leaves still
// carrying MultiClusters (call ExpandOneToMany first) and two fields of
// one interface in a cluster are rejected. Cluster order follows first
// appearance across the sources; unannotated leaves are ignored (they
// correspond to source-specific fields the matcher could not align).
func (t *Table) DeriveMapping() (*Mapping, error) {
	// Number the clusters in order of first appearance and count their
	// fields, so every Members slice is allocated once at its final size.
	ids := make(map[string]int32)
	var counts []int32
	for i := range t.Leaves {
		leaf := &t.Leaves[i]
		leaf.Cluster = -1
		if c := leaf.Node.Cluster; c != "" {
			id, ok := ids[c]
			if !ok {
				id = int32(len(counts))
				ids[c] = id
				counts = append(counts, 0)
			}
			counts[id]++
			leaf.Cluster = id
		}
	}
	m := &Mapping{Clusters: make([]*Cluster, len(counts)), byName: make(map[string]*Cluster, len(counts))}
	t.Mapping, t.Names = m, make([]string, len(counts))
	// An interface's members of a cluster are the last ones appended while
	// its source is read, so the last member tells whether the source
	// already supplied the cluster; only a source named like an earlier
	// one, which may have supplied it before other sources did, needs the
	// scan.
	named := make([]bool, len(t.Sources))
	for s := range t.Sources {
		src := &t.Sources[s]
		shared := named[src.Ordinal]
		named[src.Ordinal] = true
		for i := src.LeafLo; i < src.LeafHi; i++ {
			leaf := &t.Leaves[i]
			if len(leaf.Node.MultiClusters) > 0 {
				return nil, fmt.Errorf(
					"cluster: leaf %q of %s has an unexpanded 1:m correspondence",
					leaf.Node.Label, src.Interface)
			}
			if leaf.Cluster < 0 {
				continue
			}
			c := m.Clusters[leaf.Cluster]
			if c == nil {
				c = &Cluster{Name: leaf.Node.Cluster, Members: make([]Member, 0, counts[leaf.Cluster])}
				m.Clusters[leaf.Cluster] = c
				m.byName[c.Name] = c
				t.Names[leaf.Cluster] = c.Name
			}
			dup := len(c.Members) > 0 && c.Members[len(c.Members)-1].Interface == src.Interface
			if !dup && shared {
				_, dup = c.MemberFor(src.Interface)
			}
			if dup {
				return nil, fmt.Errorf(
					"cluster: interface %s supplies two fields for cluster %s",
					src.Interface, c.Name)
			}
			c.Members = append(c.Members, Member{Interface: src.Interface, Leaf: leaf.Node})
		}
	}
	// The members of a cluster are its leaves, in table order.
	t.memberOff = make([]int32, len(counts)+1)
	for id, n := range counts {
		t.memberOff[id+1] = t.memberOff[id] + n
	}
	t.members = make([]int32, t.memberOff[len(counts)])
	next := slices.Clone(t.memberOff[:len(counts)])
	for i := range t.Leaves {
		if id := t.Leaves[i].Cluster; id >= 0 {
			t.members[next[id]] = int32(i)
			next[id]++
		}
	}
	return m, nil
}

// Prune drops the clusters of the derived mapping that fewer than minFreq
// interfaces supply: their leaves lose their annotation and their ID, and
// the kept clusters are renumbered in order. It returns the new mapping,
// or the derived one when every cluster is kept.
func (t *Table) Prune(minFreq int) *Mapping {
	renum := make([]int32, len(t.Names))
	var keep []*Cluster
	var names []string
	off := []int32{0}
	var members []int32
	for i, c := range t.Mapping.Clusters {
		renum[i] = -1
		if c.Frequency() >= minFreq {
			renum[i] = int32(len(keep))
			keep = append(keep, c)
			names = append(names, c.Name)
			members = append(members, t.Members(int32(i))...)
			off = append(off, int32(len(members)))
		}
	}
	if len(keep) == len(t.Mapping.Clusters) {
		return t.Mapping
	}
	t.Names = names
	for i := range t.Leaves {
		leaf := &t.Leaves[i]
		if leaf.Cluster < 0 {
			continue
		}
		if leaf.Cluster = renum[leaf.Cluster]; leaf.Cluster < 0 {
			leaf.Node.Cluster = ""
		}
	}
	t.Mapping, t.memberOff, t.members = NewMapping(keep...), off, members
	return t.Mapping
}

// SpanClusters appends the sorted distinct cluster IDs of Leaves[lo:hi]
// to buf: the descendant cluster set of a node, or of any run of leaves.
func (t *Table) SpanClusters(buf []int32, lo, hi int32) []int32 {
	start := len(buf)
	for _, l := range t.Leaves[lo:hi] {
		if l.Cluster >= 0 {
			buf = append(buf, l.Cluster)
		}
	}
	slices.Sort(buf[start:])
	return buf[:start+len(slices.Compact(buf[start:]))]
}
