package schema

import (
	"reflect"
	"testing"
	"testing/quick"
)

// vacationsTree builds the "Vacations" tree from Figure 2 of the paper.
func vacationsTree() *Tree {
	return NewTree("vacations",
		NewGroup("Where and when do you want to travel?",
			NewField("Leaving from", "c_Depart"),
			NewField("Going to", "c_Dest"),
		),
		NewGroup("How many people are going?",
			NewField("Adults", "c_Adult"),
			NewField("Seniors", "c_Senior"),
			NewField("Children", "c_Child"),
			NewField("Infants", "c_Infant"),
		),
	)
}

func TestLeavesAndInternalNodes(t *testing.T) {
	tr := vacationsTree()
	leaves := tr.Leaves()
	if len(leaves) != 6 {
		t.Fatalf("got %d leaves, want 6", len(leaves))
	}
	wantOrder := []string{"Leaving from", "Going to", "Adults", "Seniors", "Children", "Infants"}
	for i, l := range leaves {
		if l.Label != wantOrder[i] {
			t.Errorf("leaf %d = %q, want %q (order must match interface order)", i, l.Label, wantOrder[i])
		}
	}
	ints := tr.InternalNodes()
	if len(ints) != 2 {
		t.Fatalf("got %d internal nodes, want 2", len(ints))
	}
	if ints[0].Label != "Where and when do you want to travel?" {
		t.Errorf("unexpected internal order: %q", ints[0].Label)
	}
}

func TestDepthAndCounts(t *testing.T) {
	tr := vacationsTree()
	if d := tr.Depth(); d != 3 {
		t.Errorf("Depth = %d, want 3 (root, groups, fields)", d)
	}
	leaves, internal := tr.CountNodes()
	if leaves != 6 || internal != 2 {
		t.Errorf("CountNodes = (%d, %d), want (6, 2)", leaves, internal)
	}
	flat := NewTree("flat", NewField("A", ""), NewField("B", ""))
	if d := flat.Depth(); d != 2 {
		t.Errorf("flat Depth = %d, want 2", d)
	}
}

func TestDescendantLeavesAndClusters(t *testing.T) {
	tr := vacationsTree()
	grp := tr.Root.Children[1]
	got := grp.LeafClusters()
	want := map[string]bool{"c_Adult": true, "c_Senior": true, "c_Child": true, "c_Infant": true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("LeafClusters = %v, want %v", got, want)
	}
	if n := len(grp.DescendantLeaves()); n != 4 {
		t.Errorf("DescendantLeaves = %d, want 4", n)
	}
	leaf := grp.Children[0]
	if ls := leaf.DescendantLeaves(); len(ls) != 1 || ls[0] != leaf {
		t.Error("a leaf's descendant leaves must be itself")
	}
}

func TestParentAndPath(t *testing.T) {
	tr := vacationsTree()
	grp := tr.Root.Children[1]
	leaf := grp.Children[2]
	if p := tr.Root.Parent(leaf); p != grp {
		t.Error("Parent should find the group above Children")
	}
	if p := tr.Root.Parent(tr.Root); p != nil {
		t.Error("the root has no parent")
	}
	path := tr.Path(leaf)
	if len(path) != 3 || path[0] != tr.Root || path[1] != grp || path[2] != leaf {
		t.Errorf("Path length = %d, want root→group→leaf", len(path))
	}
	if tr.Path(&Node{}) != nil {
		t.Error("Path to a foreign node must be nil")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tr := vacationsTree()
	tr.Leaves()[0].Instances = []string{"x"}
	cl := tr.Clone()
	cl.Leaves()[0].Label = "changed"
	cl.Leaves()[0].Instances[0] = "y"
	if tr.Leaves()[0].Label == "changed" || tr.Leaves()[0].Instances[0] == "y" {
		t.Error("Clone must not share nodes or instance slices")
	}
}

func TestValidate(t *testing.T) {
	if err := vacationsTree().Validate(); err != nil {
		t.Errorf("valid tree rejected: %v", err)
	}
	var nilTree *Tree
	if err := nilTree.Validate(); err == nil {
		t.Error("nil tree must fail validation")
	}
	if err := (&Tree{Interface: "x"}).Validate(); err == nil {
		t.Error("rootless tree must fail validation")
	}
	if err := (&Tree{Root: &Node{}}).Validate(); err == nil {
		t.Error("unnamed interface must fail validation")
	}
	shared := NewField("dup", "")
	bad := NewTree("bad", shared, shared)
	if err := bad.Validate(); err == nil || err.Error() != `schema: node "dup" is shared or cyclic` {
		t.Errorf("shared node: %v, want it rejected as shared or cyclic", err)
	}
	loop := NewGroup("loop", NewField("f", ""))
	loop.Children = append(loop.Children, NewGroup("inner", loop))
	cyclic := NewTree("cyclic", NewField("a", ""), loop)
	if err := cyclic.Validate(); err == nil || err.Error() != `schema: node "loop" is shared or cyclic` {
		t.Errorf("cyclic tree: %v, want it rejected as shared or cyclic", err)
	}
	// A rejected tree leaves no node behind in the pooled sets.
	if err := NewTree("after", shared).Validate(); err != nil {
		t.Errorf("a tree reusing a node of an earlier rejected tree: %v", err)
	}
	badInt := NewTree("bad2", &Node{Label: "g", Instances: []string{"v"}, Children: []*Node{NewField("f", "")}})
	if err := badInt.Validate(); err == nil {
		t.Error("internal node with instances must fail validation")
	}
	badCl := NewTree("bad3", &Node{Label: "g", Cluster: "c", Children: []*Node{NewField("f", "")}})
	if err := badCl.Validate(); err == nil {
		t.Error("internal node with a cluster must fail validation")
	}
}

func TestLabeledRatio(t *testing.T) {
	tr := NewTree("lq",
		NewGroup("G", NewField("A", ""), NewField("", "")),
		NewField("B", ""),
	)
	// Nodes: G, A, unlabeled, B = 4 nodes, 3 labeled.
	if got := tr.LabeledRatio(); got != 0.75 {
		t.Errorf("LabeledRatio = %v, want 0.75", got)
	}
	empty := &Tree{Interface: "e", Root: &Node{}}
	if got := empty.LabeledRatio(); got != 0 {
		t.Errorf("empty LabeledRatio = %v, want 0", got)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	trees := []*Tree{vacationsTree()}
	trees[0].Leaves()[1].Instances = []string{"NYC", "SFO"}
	data, err := EncodeTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTrees(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trees, back) {
		t.Error("round trip changed the trees")
	}
	if _, err := DecodeTrees([]byte("{")); err == nil {
		t.Error("invalid JSON must fail")
	}
	if _, err := DecodeTrees([]byte(`[{"interface":"","root":{}}]`)); err == nil {
		t.Error("decoded trees must be validated")
	}
}

func TestString(t *testing.T) {
	s := vacationsTree().String()
	for _, want := range []string{"interface vacations", "+ How many people are going?", "- Adults", "[c_Adult]"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q in:\n%s", want, s)
		}
	}
	unl := NewTree("u", NewField("", ""))
	if !contains(unl.String(), "(no label)") {
		t.Error("unlabeled fields should render a placeholder")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: randomly generated trees satisfy leaves+internal+1 == total
// visited nodes, Clone equality, and Validate acceptance.
func TestTreeProperties(t *testing.T) {
	build := func(seed int64) *Tree {
		x := seed
		next := func(n int) int {
			x = x*6364136223846793005 + 1442695040888963407
			v := int((x >> 33) % int64(n))
			if v < 0 {
				v = -v
			}
			return v
		}
		var gen func(depth int) *Node
		gen = func(depth int) *Node {
			if depth >= 3 || next(3) == 0 {
				return NewField("f", "")
			}
			n := NewGroup("g")
			for i := 0; i < 1+next(3); i++ {
				n.Children = append(n.Children, gen(depth+1))
			}
			return n
		}
		tr := NewTree("prop")
		for i := 0; i < 1+next(4); i++ {
			tr.Root.Children = append(tr.Root.Children, gen(1))
		}
		return tr
	}
	f := func(seed int64) bool {
		tr := build(seed)
		if tr.Validate() != nil {
			return false
		}
		leaves, internal := tr.CountNodes()
		count := 0
		tr.Root.Walk(func(*Node) bool { count++; return true })
		if leaves+internal+1 != count {
			return false
		}
		return reflect.DeepEqual(tr, tr.Clone())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
