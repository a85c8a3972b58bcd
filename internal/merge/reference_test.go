package merge

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// This file keeps the tree walks the table replaced, as the references
// the table-driven merge is compared against: units from LeafClusters
// under every InternalNodes node, keyed by joined cluster names; nesting
// evidence by walking an outer occurrence's subtree; positions from
// Leaves.

// crosses reports whether two sets overlap without one containing the
// other.
func crosses(a, b map[string]bool) bool {
	inter := 0
	for x := range a {
		if b[x] {
			inter++
		}
	}
	return inter > 0 && inter != len(a) && inter != len(b)
}

type treeOcc struct {
	tree *schema.Tree
	node *schema.Node
}

type treeUnit struct {
	key         string
	clusters    map[string]bool
	support     int
	occurrences []treeOcc
}

func treeKey(set map[string]bool) string {
	names := make([]string, 0, len(set))
	for c := range set {
		names = append(names, c)
	}
	sort.Strings(names)
	return strings.Join(names, "\x00")
}

// treeUnits is the tree-walk collectUnits.
func treeUnits(trees []*schema.Tree, universe map[string]bool) map[string]*treeUnit {
	units := make(map[string]*treeUnit)
	for _, t := range trees {
		for _, n := range t.InternalNodes() {
			filtered := make(map[string]bool)
			for c := range n.LeafClusters() {
				if universe[c] {
					filtered[c] = true
				}
			}
			if len(filtered) < 2 {
				continue
			}
			k := treeKey(filtered)
			u := units[k]
			if u == nil {
				u = &treeUnit{key: k, clusters: filtered}
				units[k] = u
			}
			u.support++
			u.occurrences = append(u.occurrences, treeOcc{t, n})
		}
	}
	return units
}

// treeNestingObserved is the tree-walk nestingObserved.
func treeNestingObserved(inner, outer *treeUnit) bool {
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

// treePositions is the tree-walk averagePositions.
func treePositions(trees []*schema.Tree) map[string]float64 {
	sum := make(map[string]float64)
	count := make(map[string]int)
	for _, t := range trees {
		leaves := t.Leaves()
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

// referenceCorpora lists the inputs the table is compared with the tree
// walks on, expanded: the seven domains, the small and medium synth
// presets at seeds 1–4, each also with its clusters renamed (so name order
// differs from first appearance) and with clusters shaped as the matcher
// assigns them (matched), and random trees with 1:m fields.
func referenceCorpora(t *testing.T) map[string][]*schema.Tree {
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
			trees, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%s/%d", size, seed)] = trees
		}
	}
	names := make([]string, 0, len(out))
	for name := range out {
		names = append(names, name)
	}
	for _, name := range names {
		out[name+"/renamed"] = renamed(out[name])
		out[name+"/matched"] = matched(out[name])
	}
	for seed := uint64(0); seed < 40; seed++ {
		out[fmt.Sprintf("random/%d", seed)] = randomNestedTrees(rand.New(rand.NewPCG(seed, 3)))
	}
	for _, trees := range out {
		cluster.ExpandOneToMany(trees)
	}
	return out
}

// renamed clones trees with every cluster name c replaced by a name whose
// order reverses c's, as matcher-assigned names reorder the clusters.
func renamed(trees []*schema.Tree) []*schema.Tree {
	out := make([]*schema.Tree, len(trees))
	for i, t := range trees {
		out[i] = t.Clone()
		out[i].Root.Walk(func(n *schema.Node) bool {
			if n.Cluster != "" {
				n.Cluster = "m_" + reverse(n.Cluster)
			}
			for j, c := range n.MultiClusters {
				n.MultiClusters[j] = "m_" + reverse(c)
			}
			return true
		})
	}
	return out
}

// matched clones expanded trees with clusters shaped as the matcher
// assigns them: every leaf is clustered, by its lower-cased trimmed label
// (an unlabeled leaf alone), and the k-th such field of an interface goes
// into the k-th cluster of its label, numbered in order of first
// appearance as "m_%03d".
func matched(trees []*schema.Tree) []*schema.Tree {
	out := make([]*schema.Tree, len(trees))
	ids := make(map[string]int)
	for i, t := range trees {
		out[i] = t.Clone()
		cluster.ExpandOneToMany(out[i : i+1])
		seen := make(map[string]int)
		out[i].Root.Walk(func(n *schema.Node) bool {
			if !n.IsLeaf() {
				return true
			}
			label := strings.ToLower(strings.TrimSpace(n.Label))
			if label == "" {
				label = fmt.Sprintf("\x00%d/%p", i, n)
			}
			key := fmt.Sprintf("%s\x00%d", label, seen[label])
			seen[label]++
			if _, ok := ids[key]; !ok {
				ids[key] = len(ids) + 1
			}
			n.Cluster = fmt.Sprintf("m_%03d", ids[key])
			return true
		})
	}
	return out
}

func reverse(s string) string {
	b := []byte(s)
	slices.Reverse(b)
	return string(b)
}

// randomNestedTrees builds 2–9 interfaces over 12 clusters, nested up to
// four levels, with 1:m fields, unannotated and unlabeled fields, and
// repeated interface names.
func randomNestedTrees(r *rand.Rand) []*schema.Tree {
	var build func(depth int, used map[int]bool) []*schema.Node
	build = func(depth int, used map[int]bool) []*schema.Node {
		var out []*schema.Node
		for k := 1 + r.IntN(4); k > 0; k-- {
			switch x := r.IntN(10); {
			case x < 3 && depth < 4:
				if kids := build(depth+1, used); len(kids) > 0 {
					out = append(out, schema.NewGroup([]string{"", "G", " Group "}[r.IntN(3)], kids...))
				}
			case x < 4:
				out = append(out, schema.NewField("free", ""))
			default:
				c := r.IntN(12)
				if used[c] {
					continue
				}
				used[c] = true
				if x == 4 && !used[c+12] {
					used[c+12] = true
					out = append(out, schema.NewMultiField("Many", fmt.Sprintf("c%02d", c), fmt.Sprintf("c%02d", c+12)))
					continue
				}
				out = append(out, schema.NewField([]string{"", "F", " f "}[r.IntN(3)], fmt.Sprintf("c%02d", c), "a", "B"))
			}
		}
		return out
	}
	trees := make([]*schema.Tree, 2+r.IntN(8))
	for i := range trees {
		kids := build(0, map[int]bool{})
		if len(kids) == 0 {
			kids = []*schema.Node{schema.NewField("x", "c00")}
		}
		trees[i] = schema.NewTree(fmt.Sprintf("s%d", r.IntN(len(trees))), kids...)
	}
	return trees
}

// TestTableMatchesTreeWalk compares, on every reference corpus with and
// without rare clusters pruned, the units collectUnits reads off the table
// (cluster sets, support, occurrence nodes), the nesting evidence between
// every two of them, and the average positions against the tree walks.
func TestTableMatchesTreeWalk(t *testing.T) {
	compared := 0
	for name, trees := range referenceCorpora(t) {
		for _, minFreq := range []int{1, 2} {
			tab := cluster.NewTable(trees)
			m, err := tab.DeriveMapping()
			if err != nil {
				continue // two fields of one interface in a cluster
			}
			if minFreq > 1 {
				m = tab.Prune(minFreq)
			}
			if len(m.Clusters) == 0 {
				continue
			}
			checkTableUnits(t, fmt.Sprintf("%s/min%d", name, minFreq), tab)
			if strings.Contains(name, "/matched") {
				compared++
			}
		}
	}
	if compared < 20 {
		t.Fatalf("only %d matcher-shaped corpora compared", compared)
	}
}

func checkTableUnits(t *testing.T, name string, tab *cluster.Table) {
	t.Helper()
	n := len(tab.Mapping.Clusters)
	universe := make(map[string]bool, n)
	for _, c := range tab.Mapping.Clusters {
		universe[c.Name] = true
	}
	byRank, rank := ranks(tab.Names[:n])
	units := collectUnits(tab, rank)
	want := treeUnits(tab.Trees, universe)
	if len(units) != len(want) {
		t.Fatalf("%s: %d units, want %d", name, len(units), len(want))
	}
	pairs := make(map[*unit]*treeUnit, len(units))
	for _, u := range units {
		set := make(map[string]bool, len(u.set))
		for i, r := range u.set {
			set[tab.Names[byRank[r]]] = true
			if i > 0 && u.set[i-1] >= r {
				t.Fatalf("%s: unit set %v is not sorted", name, u.set)
			}
		}
		w := want[treeKey(set)]
		if w == nil || len(set) != len(u.set) {
			t.Fatalf("%s: unit %v has no tree-walk twin", name, set)
		}
		if u.support != w.support || len(u.occurrences) != len(w.occurrences) {
			t.Fatalf("%s: unit %q support %d in %d nodes, want %d in %d",
				name, w.key, u.support, len(u.occurrences), w.support, len(w.occurrences))
		}
		for i, o := range u.occurrences {
			nd := tab.Nodes[o]
			if nd.Node != w.occurrences[i].node || tab.Trees[nd.Source] != w.occurrences[i].tree {
				t.Fatalf("%s: unit %q occurrence %d differs", name, w.key, i)
			}
		}
		pairs[u] = w
	}
	for u, uw := range pairs {
		for v, vw := range pairs {
			if got, want := nestingObserved(tab.Nodes, u, v), treeNestingObserved(uw, vw); got != want {
				t.Fatalf("%s: nesting of %q in %q: %v, want %v", name, uw.key, vw.key, got, want)
			}
		}
	}
	pos := averagePositions(tab)
	wantPos := treePositions(tab.Trees)
	for id, c := range tab.Names {
		p, ok := wantPos[c]
		if !ok {
			p = -1
		}
		if pos[id] != p {
			t.Fatalf("%s: position of %s %v, want %v", name, c, pos[id], p)
		}
	}
}
