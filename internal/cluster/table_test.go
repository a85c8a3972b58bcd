package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"qilabel/internal/dataset"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// This file keeps the tree walks the table replaced, as the references it
// is compared against: the pipeline's label list (one walk over every
// node), the mapping as a walk over Leaves, and each leaf's folding of its
// instances.

// treeLabels is the label walk the table's Labels replaced: every node
// label, and after a leaf's its trimmed form when that differs and is not
// empty, each once, first seen first.
func treeLabels(sources []*schema.Tree) []string {
	var labels []string
	seen := make(map[string]bool)
	add := func(l string) {
		if !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	for _, t := range sources {
		t.Root.Walk(func(n *schema.Node) bool {
			if n.Label != "" {
				add(n.Label)
				if n.IsLeaf() {
					if tr := strings.TrimSpace(n.Label); tr != n.Label && tr != "" {
						add(tr)
					}
				}
			}
			return true
		})
	}
	return labels
}

// treeMapping is DeriveMapping as a walk over each tree's Leaves.
func treeMapping(trees []*schema.Tree) (*Mapping, error) {
	m := NewMapping()
	for _, t := range trees {
		for _, leaf := range t.Leaves() {
			if len(leaf.MultiClusters) > 0 {
				return nil, fmt.Errorf(
					"cluster: leaf %q of %s has an unexpanded 1:m correspondence",
					leaf.Label, t.Interface)
			}
			if leaf.Cluster == "" {
				continue
			}
			c := m.Get(leaf.Cluster)
			if c == nil {
				c = &Cluster{Name: leaf.Cluster}
				m.add(c)
			}
			if _, dup := c.MemberFor(t.Interface); dup {
				return nil, fmt.Errorf(
					"cluster: interface %s supplies two fields for cluster %s",
					t.Interface, leaf.Cluster)
			}
			c.Members = append(c.Members, Member{Interface: t.Interface, Leaf: leaf})
		}
	}
	return m, nil
}

// foldSet is the matcher's per-leaf folding of an instance list.
func foldSet(instances []string) []string {
	if len(instances) == 0 {
		return nil
	}
	out := make([]string, len(instances))
	for i, v := range instances {
		out[i] = strings.ToLower(strings.TrimSpace(v))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// tableCorpora lists the inputs of the comparison: the seven domains, the
// small and medium synth presets at seeds 1–4, and random trees with 1:m
// fields, blank and spaced labels, repeated interface names, a root that
// is a field and two fields of one interface in a cluster.
func tableCorpora(t *testing.T) map[string][]*schema.Tree {
	t.Helper()
	out := make(map[string][]*schema.Tree)
	for _, d := range dataset.Domains() {
		out[d.Name] = d.Generate()
	}
	for _, size := range []string{"small", "medium"} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg, err := synth.Preset(size)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			if out[fmt.Sprintf("%s/%d", size, seed)], err = synth.Generate(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	labels := []string{"", " ", "A", " A", "a ", "Group", "From"}
	values := []string{"x", " X", "y", "Y ", ""}
	for seed := uint64(0); seed < 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 13))
		var build func(depth int) []*schema.Node
		build = func(depth int) []*schema.Node {
			var kids []*schema.Node
			for k := 1 + r.IntN(4); k > 0; k-- {
				label := labels[r.IntN(len(labels))]
				switch x := r.IntN(8); {
				case x == 0 && depth < 3:
					kids = append(kids, schema.NewGroup(label, build(depth+1)...))
				case x == 1:
					kids = append(kids, schema.NewMultiField(label, fmt.Sprintf("p%d", r.IntN(4)), fmt.Sprintf("q%d", r.IntN(4))))
				default:
					var inst []string
					for v := r.IntN(4); v > 0; v-- {
						inst = append(inst, values[r.IntN(len(values))])
					}
					cl := ""
					if r.IntN(5) > 0 {
						cl = fmt.Sprintf("c%d", r.IntN(6))
					}
					kids = append(kids, schema.NewField(label, cl, inst...))
				}
			}
			return kids
		}
		trees := make([]*schema.Tree, 1+r.IntN(6))
		for i := range trees {
			iface := fmt.Sprintf("s%d", r.IntN(4))
			if r.IntN(8) == 0 {
				trees[i] = &schema.Tree{Interface: iface, Root: schema.NewField(labels[r.IntN(len(labels))], "c9", "x")}
			} else {
				trees[i] = &schema.Tree{Interface: iface, Root: &schema.Node{Label: labels[r.IntN(len(labels))], Children: build(0)}}
			}
		}
		out[fmt.Sprintf("random/%d", seed)] = trees
	}
	return out
}

// TestTableMatchesTreeWalk compares the table with the tree walks on every
// corpus, before and after 1:m expansion: the leaves and internal nodes
// in pre-order (each node's span holding exactly its descendant leaves,
// and its parent), the label list, every leaf's labels and folded
// instance set, the mapping, errors included, the members' leaves, and
// the table's and the walk's pruning. After DeriveMapping and after
// Prune, Names lists exactly the mapping's clusters, so every leaf's
// cluster ID names a mapping cluster.
func TestTableMatchesTreeWalk(t *testing.T) {
	mapped, failed := 0, 0
	for name, trees := range tableCorpora(t) {
		for _, expand := range []bool{false, true} {
			if expand {
				ExpandOneToMany(trees)
			}
			tab := NewTable(trees)
			checkLayout(t, name, tab)
			if got, want := tab.Labels, treeLabels(trees); !slices.Equal(got, want) {
				t.Fatalf("%s: labels %q, want %q", name, got, want)
			}

			m, err := tab.DeriveMapping()
			want, wantErr := treeMapping(trees)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Fatalf("%s: mapping error %v, want %v", name, err, wantErr)
			}
			if err != nil {
				failed++
				continue
			}
			mapped++
			checkMapping(t, name, tab, m, want)

			// Pruning renumbers the kept clusters and clears the others.
			kept := tab.Prune(2)
			var wantKept []*Cluster
			for _, c := range want.Clusters {
				if c.Frequency() >= 2 {
					wantKept = append(wantKept, c)
				}
			}
			if len(kept.Clusters) != len(wantKept) {
				t.Fatalf("%s: %d clusters kept, want %d", name, len(kept.Clusters), len(wantKept))
			}
			checkMapping(t, name+"/pruned", tab, kept, NewMapping(wantKept...))
			for _, l := range tab.Leaves {
				if l.Node.Cluster != "" && kept.Get(l.Node.Cluster) == nil {
					t.Fatalf("%s: a pruned cluster's leaf kept its annotation", name)
				}
			}
		}
	}
	if mapped == 0 || failed == 0 {
		t.Fatalf("%d corpora mapped and %d failed; want both kinds", mapped, failed)
	}
}

// checkLayout compares the table's leaves and nodes with each tree's
// Leaves, InternalNodes and DescendantLeaves.
func checkLayout(t *testing.T, name string, tab *Table) {
	t.Helper()
	var leaves []*schema.Node
	var nodes []*schema.Node
	for s, tr := range tab.Trees {
		src := tab.Sources[s]
		if src.Interface != tr.Interface || int(src.LeafLo) != len(leaves) || int(src.NodeLo) != len(nodes) {
			t.Fatalf("%s: source %d ranges off", name, s)
		}
		leaves = append(leaves, tr.Leaves()...)
		nodes = append(nodes, tr.InternalNodes()...)
		if int(src.LeafHi) != len(leaves) || int(src.NodeHi) != len(nodes) {
			t.Fatalf("%s: source %d ends off", name, s)
		}
		if first := slices.IndexFunc(tab.Sources, func(o Source) bool { return o.Interface == tr.Interface }); tab.Sources[first].Ordinal != src.Ordinal {
			t.Fatalf("%s: source %d ordinal %d, want its name's %d", name, s, src.Ordinal, tab.Sources[first].Ordinal)
		}
	}
	if len(tab.Leaves) != len(leaves) || len(tab.Nodes) != len(nodes) {
		t.Fatalf("%s: %d leaves and %d nodes, want %d and %d", name, len(tab.Leaves), len(nodes), len(leaves), len(nodes))
	}
	label := func(id int32) string {
		if id < 0 {
			return ""
		}
		return tab.Labels[id]
	}
	for i, l := range tab.Leaves {
		n := leaves[i]
		if l.Node != n || label(l.Label) != n.Label || label(l.Trimmed) != strings.TrimSpace(n.Label) ||
			!slices.Equal(tab.Sets[l.Set], foldSet(n.Instances)) || (l.Set == 0) != (len(n.Instances) == 0) {
			t.Fatalf("%s: leaf %d = %+v, want %+v", name, i, l, n)
		}
		if root := tab.Trees[l.Source].Root; root != n && root.Parent(n) != parentNode(tab, l.Parent, l.Source) ||
			root == n && l.Parent != -1 {
			t.Fatalf("%s: leaf %d parent off", name, i)
		}
	}
	for i, nd := range tab.Nodes {
		n := nodes[i]
		if nd.Node != n || label(nd.Label) != n.Label {
			t.Fatalf("%s: node %d = %+v, want %q", name, i, nd, n.Label)
		}
		var span []*schema.Node
		for _, l := range tab.Leaves[nd.Lo:nd.Hi] {
			span = append(span, l.Node)
		}
		if !slices.Equal(span, n.DescendantLeaves()) {
			t.Fatalf("%s: node %d spans other leaves than its descendants", name, i)
		}
		if tab.Trees[nd.Source].Root.Parent(n) != parentNode(tab, nd.Parent, nd.Source) {
			t.Fatalf("%s: node %d parent off", name, i)
		}
	}
}

func parentNode(tab *Table, parent, source int32) *schema.Node {
	if parent < 0 {
		return tab.Trees[source].Root
	}
	return tab.Nodes[parent].Node
}

// checkMapping compares a mapping the table numbered with the tree walk's
// and checks the names, every leaf's cluster ID and every cluster's member
// leaves.
func checkMapping(t *testing.T, name string, tab *Table, m, want *Mapping) {
	t.Helper()
	if len(m.Clusters) != len(want.Clusters) || len(m.Clusters) > 0 && !reflect.DeepEqual(m.Clusters, want.Clusters) ||
		tab.Mapping != m {
		t.Fatalf("%s: the mapping differs from the tree walk's", name)
	}
	if len(tab.Names) != len(m.Clusters) {
		t.Fatalf("%s: %d names for %d clusters", name, len(tab.Names), len(m.Clusters))
	}
	for i, c := range m.Clusters {
		if tab.Names[i] != c.Name {
			t.Fatalf("%s: ID %d names %s, want %s", name, i, tab.Names[i], c.Name)
		}
		members := tab.Members(int32(i))
		if len(members) != len(c.Members) {
			t.Fatalf("%s: %s has %d member leaves, want %d", name, c.Name, len(members), len(c.Members))
		}
		for k, leaf := range members {
			if tab.Leaves[leaf].Node != c.Members[k].Leaf || tab.Leaves[leaf].Cluster != int32(i) {
				t.Fatalf("%s: %s member %d off", name, c.Name, k)
			}
		}
	}
	for i, l := range tab.Leaves {
		if want := m.Get(l.Node.Cluster); (want == nil) != (l.Cluster < 0) ||
			want != nil && m.Clusters[l.Cluster] != want {
			t.Fatalf("%s: leaf %d numbered %d for %q", name, i, l.Cluster, l.Node.Cluster)
		}
	}
}
