package merge

import (
	"context"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

// airlineTrees builds three airline sources with compatible grouping:
// a route group (depart, dest) and a passengers group (senior, adult,
// child, infant), partially covered by each source.
func airlineTrees() []*schema.Tree {
	return []*schema.Tree{
		schema.NewTree("aa",
			schema.NewGroup("Where do you want to go?",
				schema.NewField("From", "c_Depart"),
				schema.NewField("To", "c_Dest"),
			),
			schema.NewGroup("Passengers",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
			),
		),
		schema.NewTree("british",
			schema.NewGroup("Route",
				schema.NewField("Leaving from", "c_Depart"),
				schema.NewField("Going to", "c_Dest"),
			),
			schema.NewGroup("How many people are going?",
				schema.NewField("Seniors", "c_Senior"),
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
			),
		),
		schema.NewTree("economytravel",
			schema.NewGroup("Travelers",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
				schema.NewField("Infants", "c_Infant"),
			),
			schema.NewField("Promo Code", "c_Promo"),
		),
	}
}

// tableOf lays expanded trees out as the pipeline does: their table with
// its derived mapping, MergeTable's input.
func tableOf(tb testing.TB, trees []*schema.Tree) *cluster.Table {
	tb.Helper()
	tab := cluster.NewTable(trees)
	if _, err := tab.DeriveMapping(); err != nil {
		tb.Fatal(err)
	}
	return tab
}

// integrate merges expanded trees as the pipeline does.
func integrate(t *testing.T, trees []*schema.Tree) *Result {
	t.Helper()
	res, err := MergeTable(context.Background(), tableOf(t, trees))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMergePreservesGrouping(t *testing.T) {
	res := integrate(t, airlineTrees())
	if err := res.Tree.Validate(); err != nil {
		t.Fatalf("integrated tree invalid: %v", err)
	}
	// All six clusters must appear exactly once as leaves.
	leaves := res.Tree.Leaves()
	seen := map[string]int{}
	for _, l := range leaves {
		seen[l.Cluster]++
	}
	for _, c := range []string{"c_Depart", "c_Dest", "c_Senior", "c_Adult", "c_Child", "c_Infant", "c_Promo"} {
		if seen[c] != 1 {
			t.Errorf("cluster %s appears %d times, want 1", c, seen[c])
		}
	}
	// The route pair and the passenger set must each sit under one internal
	// node (grouping constraint).
	groups := map[string][]string{}
	for _, g := range res.Groups {
		var names []string
		for _, c := range g {
			names = append(names, c.Name)
		}
		sort.Strings(names)
		groups[strings.Join(names, ",")] = names
	}
	if _, ok := groups["c_Depart,c_Dest"]; !ok {
		t.Errorf("route group missing; groups = %v", groups)
	}
	if _, ok := groups["c_Adult,c_Child,c_Infant,c_Senior"]; !ok {
		t.Errorf("passenger group missing; groups = %v", groups)
	}
	// Promo Code has no grouping evidence: it must be a child of the root.
	var rootNames []string
	for _, c := range res.Root {
		rootNames = append(rootNames, c.Name)
	}
	if len(rootNames) != 1 || rootNames[0] != "c_Promo" {
		t.Errorf("root clusters = %v, want [c_Promo]", rootNames)
	}
}

func TestMergeAncestorDescendant(t *testing.T) {
	// A super-group in one source: Trip contains Route and Dates.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("Trip",
				schema.NewGroup("Route",
					schema.NewField("From", "c_From"),
					schema.NewField("To", "c_To"),
				),
				schema.NewGroup("Dates",
					schema.NewField("Depart", "c_DDate"),
					schema.NewField("Return", "c_RDate"),
				),
			),
			schema.NewField("Promo", "c_Promo"),
		),
		schema.NewTree("s2",
			schema.NewGroup("Route",
				schema.NewField("From", "c_From"),
				schema.NewField("To", "c_To"),
			),
			schema.NewGroup("Dates",
				schema.NewField("Departure", "c_DDate"),
				schema.NewField("Return", "c_RDate"),
			),
		),
	}
	res := integrate(t, trees)
	// The integrated tree must contain a node covering {From,To,DDate,RDate}
	// with the two pair-groups below it.
	var trip *schema.Node
	res.Tree.Root.Walk(func(n *schema.Node) bool {
		if n.IsLeaf() || n == res.Tree.Root {
			return true
		}
		set := n.LeafClusters()
		if len(set) == 4 && set["c_From"] && set["c_To"] && set["c_DDate"] && set["c_RDate"] {
			trip = n
		}
		return true
	})
	if trip == nil {
		t.Fatal("super-group {route, dates} not preserved")
	}
	if len(trip.Children) != 2 || trip.Children[0].IsLeaf() || trip.Children[1].IsLeaf() {
		t.Errorf("super-group should contain the two pair groups, got %d children", len(trip.Children))
	}
	if len(res.Groups) != 2 {
		t.Errorf("got %d groups, want 2", len(res.Groups))
	}
}

func TestMergeIsolatedCluster(t *testing.T) {
	// Garage co-occurs with the price fields in one source but alone under
	// "Characteristics" in another richer unit; build a case where a unit
	// has one leaf child plus a nested group, making that leaf isolated.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("Characteristics",
				schema.NewField("Garage", "c_Garage"),
				schema.NewGroup("Price",
					schema.NewField("Min", "c_Min"),
					schema.NewField("Max", "c_Max"),
				),
			),
		),
		schema.NewTree("s2",
			schema.NewGroup("Price Range",
				schema.NewField("Minimum", "c_Min"),
				schema.NewField("Maximum", "c_Max"),
			),
			schema.NewField("Zip Code", "c_Zip"),
		),
	}
	res := integrate(t, trees)
	if len(res.Isolated) != 1 || res.Isolated[0].Name != "c_Garage" {
		var names []string
		for _, c := range res.Isolated {
			names = append(names, c.Name)
		}
		t.Errorf("isolated = %v, want [c_Garage]", names)
	}
}

func TestMergeSiblingOrder(t *testing.T) {
	// Fields should appear in the order sources show them: From before To.
	res := integrate(t, airlineTrees())
	labels := res.Tree.Leaves()
	idx := map[string]int{}
	for i, l := range labels {
		idx[l.Cluster] = i
	}
	if idx["c_Depart"] > idx["c_Dest"] {
		t.Error("c_Depart should precede c_Dest (source order)")
	}
	if idx["c_Adult"] > idx["c_Child"] {
		t.Error("c_Adult should precede c_Child (source order)")
	}
}

func TestMergeCrossingGroupsUnion(t *testing.T) {
	// Crossing units: {A,B} in one source, {B,C} in another. Two groups
	// sharing a field are fragments of one semantic unit, so the integrated
	// interface gets the union group {A,B,C} (this is how Table 2's group
	// spans clusters no single source covers).
	trees := []*schema.Tree{
		schema.NewTree("s1", schema.NewGroup("G1",
			schema.NewField("A", "c_A"), schema.NewField("B", "c_B")),
			schema.NewField("C", "c_C"),
			schema.NewField("D", "c_D")),
		schema.NewTree("s2", schema.NewGroup("G2",
			schema.NewField("B", "c_B"), schema.NewField("C", "c_C")),
			schema.NewField("A", "c_A")),
	}
	res := integrate(t, trees)
	if len(res.Groups) != 1 {
		t.Fatalf("got %d groups, want 1 (crossing units must union)", len(res.Groups))
	}
	var names []string
	for _, c := range res.Groups[0] {
		names = append(names, c.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != "c_A,c_B,c_C" {
		t.Errorf("group = %v, want the union {c_A, c_B, c_C}", names)
	}
}

func TestMergeInputValidation(t *testing.T) {
	if _, err := MergeTable(context.Background(), cluster.NewTable(nil)); err == nil {
		t.Error("no trees must fail")
	}
	tab := tableOf(t, []*schema.Tree{schema.NewTree("s", schema.NewField("A", ""))})
	if _, err := MergeTable(context.Background(), tab); err == nil {
		t.Error("empty mapping must fail")
	}
}

func TestStats(t *testing.T) {
	res := integrate(t, airlineTrees())
	st := res.Stats()
	if st.Leaves != 7 {
		t.Errorf("Leaves = %d, want 7", st.Leaves)
	}
	if st.Groups != 2 || st.RootLeaves != 1 || st.IsolatedLeaves != 0 {
		t.Errorf("Stats = %+v", st)
	}
	if st.Depth < 3 {
		t.Errorf("Depth = %d, want >= 3", st.Depth)
	}
}

func TestGroupParent(t *testing.T) {
	res := integrate(t, airlineTrees())
	for _, g := range res.Groups {
		p := res.GroupParent(g)
		if p == nil || p == res.Tree.Root {
			t.Fatalf("group %v has no proper parent node", g)
		}
		// Every cluster of the group must be a direct child of p.
		kids := map[string]bool{}
		for _, c := range p.Children {
			if c.IsLeaf() {
				kids[c.Cluster] = true
			}
		}
		for _, c := range g {
			if !kids[c.Name] {
				t.Errorf("cluster %s not a child of its group parent", c.Name)
			}
		}
	}
	if res.GroupParent(nil) != nil {
		t.Error("empty group has no parent")
	}
}

// Property: for random grouping structures, the integrated tree is valid,
// contains every cluster exactly once, and its internal-node cluster sets
// form a laminar family.
func TestMergeProperties(t *testing.T) {
	f := func(seed int64) bool {
		tab := cluster.NewTable(randomTrees(seed))
		m, err := tab.DeriveMapping()
		if err != nil || len(m.Clusters) == 0 {
			return true // degenerate input, skip
		}
		res, err := MergeTable(context.Background(), tab)
		if err != nil {
			return false
		}
		if res.Tree.Validate() != nil {
			return false
		}
		seen := map[string]int{}
		for _, l := range res.Tree.Leaves() {
			seen[l.Cluster]++
		}
		for _, c := range m.Clusters {
			if seen[c.Name] != 1 {
				return false
			}
		}
		// Laminar check over internal nodes.
		var sets []map[string]bool
		res.Tree.Root.Walk(func(n *schema.Node) bool {
			if !n.IsLeaf() && n != res.Tree.Root {
				sets = append(sets, n.LeafClusters())
			}
			return true
		})
		for i := range sets {
			for j := i + 1; j < len(sets); j++ {
				if crosses(sets[i], sets[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// randomTrees generates 2-5 interfaces over a pool of 8 clusters with
// random 1- or 2-level grouping.
func randomTrees(seed int64) []*schema.Tree {
	x := seed
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		v := int((x >> 33) % int64(n))
		if v < 0 {
			v = -v
		}
		return v
	}
	pool := []string{"c_1", "c_2", "c_3", "c_4", "c_5", "c_6", "c_7", "c_8"}
	nTrees := 2 + next(4)
	var trees []*schema.Tree
	for ti := 0; ti < nTrees; ti++ {
		used := map[int]bool{}
		var fields []*schema.Node
		nFields := 2 + next(6)
		for fi := 0; fi < nFields; fi++ {
			ci := next(len(pool))
			if used[ci] {
				continue
			}
			used[ci] = true
			fields = append(fields, schema.NewField("F"+pool[ci], pool[ci]))
		}
		if len(fields) == 0 {
			continue
		}
		tr := schema.NewTree(string(rune('a' + ti)))
		i := 0
		for i < len(fields) {
			if next(2) == 0 && i+1 < len(fields) {
				g := schema.NewGroup("G", fields[i], fields[i+1])
				tr.Root.Children = append(tr.Root.Children, g)
				i += 2
			} else {
				tr.Root.Children = append(tr.Root.Children, fields[i])
				i++
			}
		}
		trees = append(trees, tr)
	}
	if len(trees) == 0 {
		trees = append(trees, schema.NewTree("z", schema.NewField("A", "c_1")))
	}
	return trees
}
