package naming

import (
	"context"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/lexicon"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// This file keeps the tree walks and per-call derivations the run index
// replaced, as the references it is compared against: source units from
// InternalNodes and LeafClusters, X from the integrated tree's
// LeafClusters, cluster words and labels from Cluster.Labels, instance
// unions from Cluster.Instances, and LI 7's scan of every member.

// treeUnit is the tree walk's source unit.
type treeUnit struct {
	iface    string
	label    string
	clusters map[string]bool
}

// treeSourceUnits is the tree-walk collectSourceUnits.
func treeSourceUnits(sources []*schema.Tree) []treeUnit {
	var units []treeUnit
	for _, t := range sources {
		for _, n := range t.InternalNodes() {
			if strings.TrimSpace(n.Label) == "" {
				continue
			}
			set := n.LeafClusters()
			if len(set) == 0 {
				continue
			}
			units = append(units, treeUnit{iface: t.Interface, label: n.Label, clusters: set})
		}
	}
	return units
}

// treeDropValueLabels is dropValueLabels scanning every member for every
// label.
func treeDropValueLabels(rel *cluster.Relation, counters *Counters) *cluster.Relation {
	out := &cluster.Relation{Clusters: rel.Clusters}
	drop := make(map[int]map[string]bool)
	for col, c := range rel.Clusters {
		labels := c.Labels()
		if len(labels) < 2 {
			continue
		}
		for _, l := range labels {
			ll := strings.ToLower(strings.TrimSpace(l))
			for _, m := range c.Members {
				if strings.EqualFold(strings.TrimSpace(m.Leaf.Label), l) {
					continue
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

// namingCorpus is one reference input, merged.
type namingCorpus struct {
	name string
	lex  *lexicon.Lexicon
	mr   *merge.Result
	tab  *cluster.Table
}

// namingCorpora merges the reference inputs: the seven domains, the small
// and medium synth presets at seeds 1–4, random trees with values among
// their labels (LI 7's case), each also with rare clusters pruned to a
// minimum frequency of 2, with its clusters renamed, and re-clustered as
// the matcher shapes its clusters.
func namingCorpora(t *testing.T) []namingCorpus {
	t.Helper()
	type input struct {
		name  string
		lex   *lexicon.Lexicon
		trees func() []*schema.Tree
	}
	var inputs []input
	for _, d := range dataset.Domains() {
		inputs = append(inputs, input{d.Name, nil, d.Generate})
	}
	for _, size := range []string{"small", "medium"} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg, err := synth.Preset(size)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			_, lex, err := synth.GenerateWithLexicon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%s/%d", size, seed), lex, func() []*schema.Tree {
				trees, _, _ := synth.GenerateWithLexicon(cfg)
				return trees
			}})
		}
	}
	for seed := uint64(0); seed < 30; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("random/%d", seed), nil, func() []*schema.Tree {
			return valueTrees(rand.New(rand.NewPCG(seed, 9)))
		}})
	}
	var out []namingCorpus
	for _, in := range inputs {
		for _, variant := range []string{"", "/min2", "/renamed", "/matched"} {
			trees := in.trees()
			cluster.ExpandOneToMany(trees)
			switch variant {
			case "/renamed":
				for _, tr := range trees {
					tr.Root.Walk(func(n *schema.Node) bool {
						if n.Cluster != "" {
							n.Cluster = "m" + strings.ToUpper(n.Cluster)
						}
						return true
					})
				}
			case "/matched":
				matchLike(trees)
			}
			tab := cluster.NewTable(trees)
			m, err := tab.DeriveMapping()
			if err != nil {
				continue
			}
			if variant == "/min2" {
				m = tab.Prune(2)
			}
			if len(m.Clusters) == 0 {
				continue
			}
			mr, err := merge.MergeTable(context.Background(), tab)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, namingCorpus{in.name + variant, in.lex, mr, tab})
		}
	}
	return out
}

// matchLike re-clusters expanded trees the way the matcher shapes its
// clusters: every leaf is clustered, by its lower-cased trimmed label (an
// unlabeled leaf alone), the k-th such field of an interface going into
// the k-th cluster of its label, numbered "m_%03d" in order of first
// appearance.
func matchLike(trees []*schema.Tree) {
	ids := make(map[string]int)
	for i, t := range trees {
		seen := make(map[string]int)
		t.Root.Walk(func(n *schema.Node) bool {
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
}

// valueTrees builds 2–7 interfaces whose fields in a cluster carry each
// other's labels among their instances, in varied case and spacing, under
// labeled groups nested up to three levels.
func valueTrees(r *rand.Rand) []*schema.Tree {
	words := []string{"Format", "Hardcover", "hardcover ", "Paperback", "Binding", "Type", " TYPE", "Ébook", "ébook"}
	var build func(depth int, used map[int]bool) []*schema.Node
	build = func(depth int, used map[int]bool) []*schema.Node {
		var out []*schema.Node
		for k := 1 + r.IntN(4); k > 0; k-- {
			if r.IntN(4) == 0 && depth < 3 {
				if kids := build(depth+1, used); len(kids) > 0 {
					out = append(out, schema.NewGroup(words[r.IntN(len(words))]+" Group", kids...))
				}
				continue
			}
			c := r.IntN(8)
			if used[c] {
				continue
			}
			used[c] = true
			var inst []string
			for v := r.IntN(4); v > 0; v-- {
				inst = append(inst, words[r.IntN(len(words))])
			}
			out = append(out, schema.NewField(words[r.IntN(len(words))], fmt.Sprintf("c%d", c), inst...))
		}
		return out
	}
	trees := make([]*schema.Tree, 2+r.IntN(6))
	for i := range trees {
		kids := build(0, map[int]bool{})
		if len(kids) == 0 {
			kids = []*schema.Node{schema.NewField("Format", "c0")}
		}
		trees[i] = schema.NewTree(fmt.Sprintf("s%d", i), kids...)
	}
	return trees
}

// TestRunIndexMatchesTreeWalk compares the run index with the tree walks
// and per-call derivations it replaced, on every reference corpus: the
// source units (interface, label, cluster set), each integrated node's X
// and its §5 candidates against the map-based derivation (with and
// without instances), every cluster's labels, content words, instance
// union and folded values, each unit's content words, and LI 7's drops on
// every group relation.
func TestRunIndexMatchesTreeWalk(t *testing.T) {
	corpora := namingCorpora(t)
	if len(corpora) < 100 {
		t.Fatalf("only %d corpora", len(corpora))
	}
	drops := 0
	for _, c := range corpora {
		sem := PrecomputeAnalysis(c.lex, c.tab.Labels).Semantics()
		ix := newRunIndex(c.tab, sem)

		want := treeSourceUnits(c.mr.Sources)
		if len(ix.units.list) != len(want) {
			t.Fatalf("%s: %d units, want %d", c.name, len(ix.units.list), len(want))
		}
		for k, u := range ix.units.list {
			w := want[k]
			set := make(map[string]bool)
			for _, id := range ix.units.run(k) {
				set[c.tab.Names[id]] = true
			}
			if u.iface != w.iface || u.label != w.label || !reflect.DeepEqual(set, w.clusters) {
				t.Fatalf("%s: unit %d = %s %q %v, want %s %q %v", c.name, k, u.iface, u.label, set, w.iface, w.label, w.clusters)
			}
			if id, ok := sem.shared.ID(u.label); !ok || u.id != id || c.tab.Labels[u.form] != u.label {
				t.Fatalf("%s: unit %d carries IDs %d/%d for %q", c.name, k, u.id, u.form, u.label)
			}
			if !slices.Equal(ix.unitWords[k], sem.ContentWords(u.label)) {
				t.Fatalf("%s: unit %d words %v", c.name, k, ix.unitWords[k])
			}
		}

		nodes, xs := integratedNodes(c.mr.Tree, c.tab)
		var wantNodes []*schema.Node
		c.mr.Tree.Root.Walk(func(n *schema.Node) bool {
			if n != c.mr.Tree.Root && !n.IsLeaf() {
				wantNodes = append(wantNodes, n)
			}
			return true
		})
		if !slices.Equal(nodes, wantNodes) {
			t.Fatalf("%s: integrated nodes differ", c.name)
		}
		refUnits := newRunIndex(c.tab, nil).refUnits()
		sc := newNodeScratch(len(c.tab.Names))
		for i, n := range nodes {
			var names []string
			for _, id := range xs[i] {
				names = append(names, c.tab.Names[id])
			}
			x := n.LeafClusters()
			if !slices.IsSorted(xs[i]) || !reflect.DeepEqual(sortedKeys(x), sortedCopy(names)) {
				t.Fatalf("%s: X of node %d = %v", c.name, i, names)
			}
			// The §5 derivation over the index equals the map-based one.
			for _, inst := range []bool{false, true} {
				var gotCnt, wantCnt Counters
				got, gotPots := sem.candidateLabelsIndexed(ix, sc, xs[i], SolverOptions{UseInstances: inst, Counters: &gotCnt})
				want, wantPots := NewSemantics(c.lex).candidateLabels(x, refUnits, c.mr.Mapping, SolverOptions{UseInstances: inst, Counters: &wantCnt})
				if !reflect.DeepEqual(got, want) || gotPots != wantPots || gotCnt != wantCnt {
					t.Fatalf("%s: node %d candidates %+v, want %+v", c.name, i, got, want)
				}
			}
		}

		for i, cl := range c.mr.Mapping.Clusters {
			f := ix.facts[i]
			if !slices.Equal(f.labels, cl.Labels()) {
				t.Fatalf("%s: %s labels %q, want %q", c.name, cl.Name, f.labels, cl.Labels())
			}
			if dom := cl.Instances(""); !slices.Equal(f.domain, dom) {
				t.Fatalf("%s: %s domain %q, want %q", c.name, cl.Name, f.domain, dom)
			}
			var values []string
			for _, v := range cl.Instances("") {
				values = append(values, strings.ToLower(strings.TrimSpace(v)))
			}
			slices.Sort(values)
			if values = slices.Compact(values); !slices.Equal(f.values, values) {
				t.Fatalf("%s: %s values %q, want %q", c.name, cl.Name, f.values, values)
			}
			var words []string
			for _, l := range cl.Labels() {
				words = append(words, sem.ContentWords(l)...)
			}
			sort.Strings(words)
			if words = dedupSorted(words); !slices.Equal(ix.words[i], words) {
				t.Fatalf("%s: %s words %q, want %q", c.name, cl.Name, ix.words[i], words)
			}
			if got := memberFacts(cl); !reflect.DeepEqual(got, f) {
				t.Fatalf("%s: %s facts from the members %+v, from the run's table %+v", c.name, cl.Name, got, f)
			}
		}

		relations := cluster.NewRelations(cluster.Interfaces(c.mr.Sources))
		for _, g := range append(slices.Clone(c.mr.Groups), c.mr.Root, c.mr.Isolated) {
			if len(g) == 0 {
				continue
			}
			rel := relations.Build(g)
			var got, want Counters
			gotRel := sem.dropValueLabels(rel, ix.factsOf(g), &got)
			wantRel := treeDropValueLabels(rel, &want)
			if got != want || !reflect.DeepEqual(gotRel, wantRel) {
				t.Fatalf("%s: LI 7 on %v dropped %v, want %v", c.name, clusterNames(g), got.LI[7], want.LI[7])
			}
			drops += got.LI[7]
		}
	}
	if drops == 0 {
		t.Fatal("LI 7 dropped no label on any corpus")
	}
}

func sortedCopy(s []string) []string {
	s = slices.Clone(s)
	sort.Strings(s)
	return s
}
