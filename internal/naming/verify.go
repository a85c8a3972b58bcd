package naming

import (
	"fmt"
	"strings"

	"qilabel/internal/schema"
)

// Rule names for the verification checks, used in Violation.Rule.
const (
	// RuleGenerality is Definition 7's first condition: an ancestor's label
	// must be at least as general as every labeled descendant's.
	RuleGenerality = "generality"
	// RuleHomonym is the sibling-homonym condition of §4.2.3: no two
	// labeled children of one parent may carry the same name.
	RuleHomonym = "homonym"
)

// Violation is one failed verification check: which node broke which rule,
// with a human-readable explanation.
type Violation struct {
	// Node is the label of the offending node (the descendant for
	// generality violations, the parent for homonym violations).
	Node string
	// Rule identifies the violated check (RuleGenerality, RuleHomonym).
	Rule string
	// Detail is the human-readable explanation.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	return fmt.Sprintf("%s: %s", v.Rule, v.Detail)
}

// VerifyViolations checks Definition 7's first condition over the assigned
// labels of the integrated tree: along every ancestor–descendant pair of
// labeled internal nodes, the ancestor's label must be semantically at
// least as general as the descendant's. Generality holds lexically
// (Definition 1's string-equal/equal/synonym/hypernym) or structurally
// (Definition 5(ii): the ancestor's label was derived for a superset of
// descendant leaves — always true for candidates produced by the
// three-phase algorithm, so a violation indicates labels that entered the
// tree outside the algorithm).
//
// It also checks that no two labeled siblings of one parent carry the same
// name (the homonym condition of §4.2.3). It returns the violations,
// empty when the labeling is vertically sound.
func (r *Result) VerifyViolations(sem *Semantics) []Violation {
	if sem == nil {
		sem = NewSemantics(nil)
	}
	var violations []Violation

	// Ancestor-descendant generality between assigned internal labels.
	nodeByPtr := make(map[*schema.Node]*NodeReport, len(r.Nodes))
	for _, nr := range r.Nodes {
		nodeByPtr[nr.Node] = nr
	}
	var walk func(n *schema.Node, ancestors []*schema.Node)
	walk = func(n *schema.Node, ancestors []*schema.Node) {
		if !n.IsLeaf() && n != r.Tree.Root && strings.TrimSpace(n.Label) != "" {
			for _, a := range ancestors {
				if strings.TrimSpace(a.Label) == "" {
					continue
				}
				if sem.AtLeastAsGeneral(a.Label, n.Label) {
					continue
				}
				// Structural half of Definition 5: the ancestor covers a
				// superset of leaves, which the integrated tree guarantees.
				if subsetSet(n.LeafClusters(), a.LeafClusters()) {
					continue
				}
				violations = append(violations, Violation{
					Node: n.Label,
					Rule: RuleGenerality,
					Detail: fmt.Sprintf(
						"ancestor %q is not at least as general as descendant %q",
						a.Label, n.Label),
				})
			}
			ancestors = append(ancestors, n)
		}
		for _, c := range n.Children {
			walk(c, ancestors)
		}
	}
	walk(r.Tree.Root, nil)

	// Sibling homonyms.
	r.Tree.Root.Walk(func(n *schema.Node) bool {
		seen := map[string]bool{}
		for _, c := range n.Children {
			l := strings.ToLower(strings.TrimSpace(c.Label))
			if l == "" {
				continue
			}
			if seen[l] {
				violations = append(violations, Violation{
					Node: n.Label,
					Rule: RuleHomonym,
					Detail: fmt.Sprintf(
						"siblings share the name %q under %q", c.Label, n.Label),
				})
			}
			seen[l] = true
		}
		return true
	})

	return violations
}
