package schema

import (
	"fmt"
	"testing"
)

func hashTree() *Tree {
	return NewTree("aa",
		NewGroup("Passengers",
			NewField("Adults", "c_Adult", "1", "2", "3"),
			NewField("Children", "c_Child"),
		),
		NewField("From", "c_From"),
	)
}

func TestCanonicalHashDeterministic(t *testing.T) {
	a, b := hashTree(), hashTree()
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("identical trees hash differently")
	}
	if a.CanonicalHash() != a.Clone().CanonicalHash() {
		t.Fatal("clone hashes differently from original")
	}
}

func TestCanonicalHashSensitivity(t *testing.T) {
	base := hashTree().CanonicalHash()
	mutations := map[string]func(*Tree){
		"interface name": func(t *Tree) { t.Interface = "bb" },
		"label":          func(t *Tree) { t.Root.Children[1].Label = "To" },
		"cluster":        func(t *Tree) { t.Root.Children[1].Cluster = "c_To" },
		"instance order": func(t *Tree) {
			in := t.Root.Children[0].Children[0].Instances
			in[0], in[1] = in[1], in[0]
		},
		"child order": func(t *Tree) {
			ch := t.Root.Children[0].Children
			ch[0], ch[1] = ch[1], ch[0]
		},
		"aggregated": func(t *Tree) { t.Root.Children[0].Aggregated = true },
		"extra field": func(t *Tree) {
			t.Root.Children = append(t.Root.Children, NewField("Date", "c_Date"))
		},
	}
	for name, mutate := range mutations {
		tr := hashTree()
		mutate(tr)
		if tr.CanonicalHash() == base {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}
}

// The length-prefixed encoding must not let adjacent fields bleed into
// each other ("ab"+"c" vs "a"+"bc").
func TestCanonicalHashNoConcatenationCollision(t *testing.T) {
	a := NewTree("x", NewField("ab", "c"))
	b := NewTree("x", NewField("a", "bc"))
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Fatal("field boundary collision")
	}
}

func TestHashTreesOrderIndependent(t *testing.T) {
	t1 := hashTree()
	t2 := NewTree("bb", NewField("Departure City", "c_From"))
	t3 := NewTree("cc", NewField("Destination", "c_To"))
	h1 := HashTrees([]*Tree{t1, t2, t3})
	h2 := HashTrees([]*Tree{t3, t1, t2})
	if h1 != h2 {
		t.Fatal("tree order changed the set hash")
	}
	if h1 == HashTrees([]*Tree{t1, t2}) {
		t.Fatal("dropping a tree did not change the set hash")
	}
}

// TestTreeHashesAllocs: TreeHashes serializes every tree into one buffer
// shared by the call and hashes it in one piece, so its allocations per
// tree are bounded by a constant (the digest string, plus the buffer's
// amortized growth), whatever the size of the trees.
func TestTreeHashesAllocs(t *testing.T) {
	trees := make([]*Tree, 48)
	for i := range trees {
		var fields []*Node
		for f := 0; f < 40; f++ {
			fields = append(fields, NewField(fmt.Sprintf("Field %d", f), fmt.Sprintf("c_%d", f),
				"one", "two", "three"))
		}
		trees[i] = NewTree(fmt.Sprintf("s%02d", i), NewGroup("Group", fields[:20]...),
			NewGroup("Other", fields[20:]...))
	}
	allocs := testing.AllocsPerRun(20, func() { TreeHashes(trees) })
	if perTree := allocs / float64(len(trees)); perTree > 2 {
		t.Fatalf("TreeHashes made %.0f allocations for %d trees (%.1f per tree), want at most 2 per tree",
			allocs, len(trees), perTree)
	}
}
