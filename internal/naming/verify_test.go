package naming

import (
	"fmt"
	"strings"
	"testing"

	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// TestVerifyVerticalOnCorpus: across all seven domains the algorithm's own
// output must be vertically sound — no generality violations, no sibling
// homonyms.
func TestVerifyVerticalOnCorpus(t *testing.T) {
	sem := NewSemantics(nil)
	for _, d := range dataset.Domains() {
		_, res := pipeline(t, Options{}, d.Generate()...)
		for _, v := range res.VerifyViolations(sem) {
			t.Errorf("%s: %s", d.Name, v.Detail)
		}
	}
}

// labeledPairs lists every labeled internal node of the integrated tree
// (the root excluded) with its labeled internal strict descendants.
func labeledPairs(res *Result) map[*schema.Node][]*schema.Node {
	pairs := make(map[*schema.Node][]*schema.Node)
	var walk func(n *schema.Node, ancestors []*schema.Node)
	walk = func(n *schema.Node, ancestors []*schema.Node) {
		if !n.IsLeaf() && n != res.Tree.Root && n.Label != "" {
			for _, a := range ancestors {
				pairs[a] = append(pairs[a], n)
			}
			ancestors = append(ancestors, n)
		}
		for _, c := range n.Children {
			walk(c, ancestors)
		}
	}
	walk(res.Tree.Root, nil)
	return pairs
}

// hasGenerality reports whether vs holds a generality violation of the
// descendant labeled node.
func hasGenerality(vs []Violation, node string) bool {
	for _, v := range vs {
		if v.Rule == RuleGenerality && v.Node == node {
			return true
		}
	}
	return false
}

// TestVerifyVerticalDetectsViolations: hand-broken labelings are caught.
// Swapping the labels of a labeled parent and its labeled child gives the
// parent a label the algorithm derived for the child only: unless the
// child's label is lexically at least as general as the parent's, the
// swap breaks Definition 7, on every such pair of the seven domains.
func TestVerifyVerticalDetectsViolations(t *testing.T) {
	sem := NewSemantics(nil)
	swaps := 0
	for _, d := range dataset.Domains() {
		_, res := pipeline(t, Options{}, d.Generate()...)
		for parent, descendants := range labeledPairs(res) {
			for _, child := range descendants {
				if res.Tree.Root.Parent(child) != parent || sem.AtLeastAsGeneral(child.Label, parent.Label) {
					continue
				}
				parent.Label, child.Label = child.Label, parent.Label
				if !hasGenerality(res.VerifyViolations(sem), child.Label) {
					t.Errorf("%s: swapping %q and %q is not a generality violation", d.Name, child.Label, parent.Label)
				}
				parent.Label, child.Label = child.Label, parent.Label
				swaps++
			}
		}
	}
	if swaps == 0 {
		t.Fatal("no labeled parent and child to swap")
	}
	t.Logf("%d labeled parent/child pairs swapped", swaps)

	_, res := pipeline(t, Options{}, airlineSources()...)
	// Sibling homonyms are always violations.
	leaves := res.Tree.Leaves()
	if len(leaves) >= 2 {
		p0 := res.Tree.Root.Parent(leaves[0])
		var sibling *schema.Node
		for _, c := range p0.Children {
			if c != leaves[0] && c.IsLeaf() {
				sibling = c
			}
		}
		if sibling != nil {
			saved := sibling.Label
			sibling.Label = leaves[0].Label
			if v := res.VerifyViolations(sem); len(v) == 0 {
				t.Error("sibling homonym not detected")
			} else if want := fmt.Sprintf("siblings share the name %q", leaves[0].Label); !strings.Contains(v[0].Detail, want) {
				t.Errorf("homonym detail %q does not name %q", v[0].Detail, leaves[0].Label)
			}
			sibling.Label = saved
		}
	}
}

// TestVerifyVerticalForeignLabel: a label glued onto an internal node from
// outside the algorithm, neither lexically general nor derived for the
// node, breaks Definition 7 against each labeled descendant. Every labeled
// ancestor of the seven domains is relabeled in turn; the algorithm's own
// labeling verifies clean.
func TestVerifyVerticalForeignLabel(t *testing.T) {
	sem := NewSemantics(nil)
	const foreign = "Zebra Crossing"
	glued := 0
	for _, d := range dataset.Domains() {
		_, res := pipeline(t, Options{}, d.Generate()...)
		if v := res.VerifyViolations(sem); len(v) != 0 {
			t.Fatalf("%s: unexpected violations: %v", d.Name, v)
		}
		for a, descendants := range labeledPairs(res) {
			saved := a.Label
			a.Label = foreign
			vs := res.VerifyViolations(sem)
			for _, n := range descendants {
				if !hasGenerality(vs, n.Label) {
					t.Errorf("%s: foreign ancestor label over %q not caught: %v", d.Name, n.Label, vs)
				}
			}
			a.Label = saved
			glued++
		}
	}
	if glued == 0 {
		t.Fatal("no labeled ancestor to relabel")
	}
	t.Logf("%d labeled ancestors relabeled", glued)
}
