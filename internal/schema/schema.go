// Package schema models form-based query interfaces as ordered schema
// trees, the abstraction shared by the matcher, the merge algorithm and the
// naming algorithm (§2 of the paper).
//
// A leaf of the tree corresponds to a field of the interface (text box,
// selection list, radio-button group or check box). An internal node
// corresponds to a (super)group of fields (e.g. "Where and when do you want
// to travel?"). The order among sibling nodes resembles the order of fields
// on the rendered interface. Fields may carry a label, a set of predefined
// instances (the values of a selection list) or both; some fields on real
// interfaces are unlabeled, which the labeling quality metric (LQ in
// Table 6) measures.
package schema

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Node is a node of an ordered schema tree. A node with no children is a
// leaf and represents a field; a node with children is an internal node and
// represents a group or super-group of fields.
type Node struct {
	// Label is the textual label the interface shows for this node. Empty
	// means the node is unlabeled (frequent on real interfaces).
	Label string `json:"label,omitempty"`
	// Instances holds the predefined domain of a leaf (selection-list
	// values). Nil for free-text fields and for internal nodes.
	Instances []string `json:"instances,omitempty"`
	// Children are the ordered child nodes. Nil for leaves.
	Children []*Node `json:"children,omitempty"`

	// Cluster names the semantic cluster the leaf belongs to. It is the
	// ground-truth (or matcher-derived) identity of the field and is never
	// shown to users. Empty for internal nodes and unmatched leaves.
	Cluster string `json:"cluster,omitempty"`
	// MultiClusters lists the clusters of a leaf that participates in a 1:m
	// correspondence (the "Passengers" field of Figure 2 matches the four
	// clusters c_Adult, c_Senior, c_Child, c_Infant). Such leaves are
	// rewritten into internal nodes by cluster.ExpandOneToMany before
	// integration. Mutually exclusive with Cluster.
	MultiClusters []string `json:"multiClusters,omitempty"`
	// Aggregated marks an internal node produced by expanding a 1:m leaf:
	// on the actual source interface this node is a single field whose
	// value aggregates its children's (query translation re-aggregates).
	Aggregated bool `json:"aggregated,omitempty"`
}

// Tree is the schema tree of one query interface.
type Tree struct {
	// Interface is the identifier of the source interface (e.g. the site
	// name: "aa", "british", "economytravel").
	Interface string `json:"interface"`
	// Root is the root of the ordered schema tree. The root itself carries
	// no label on most interfaces.
	Root *Node `json:"root"`
}

// IsLeaf reports whether the node is a leaf (a field).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// NewField constructs a leaf node.
func NewField(label, cluster string, instances ...string) *Node {
	return &Node{Label: label, Cluster: cluster, Instances: instances}
}

// NewMultiField constructs a leaf node participating in a 1:m
// correspondence with the given clusters.
func NewMultiField(label string, clusters ...string) *Node {
	return &Node{Label: label, MultiClusters: clusters}
}

// NewGroup constructs an internal node with the given ordered children.
func NewGroup(label string, children ...*Node) *Node {
	return &Node{Label: label, Children: children}
}

// NewTree constructs a tree for the named interface.
func NewTree(iface string, rootChildren ...*Node) *Tree {
	return &Tree{Interface: iface, Root: &Node{Children: rootChildren}}
}

// Leaves returns the fields of the tree in interface order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	t.Root.Walk(func(n *Node) bool {
		if n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// InternalNodes returns the internal nodes of the tree in pre-order,
// excluding the root (the root is an artifact of the representation, not a
// labeled group on the interface).
func (t *Tree) InternalNodes() []*Node {
	var out []*Node
	t.Root.Walk(func(n *Node) bool {
		if n != t.Root && !n.IsLeaf() {
			out = append(out, n)
		}
		return true
	})
	return out
}

// Walk visits n and its descendants in pre-order. The visit function
// returns false to prune the subtree below the visited node.
func (n *Node) Walk(visit func(*Node) bool) {
	if n == nil {
		return
	}
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// DescendantLeaves returns the leaves under n (n itself if it is a leaf).
func (n *Node) DescendantLeaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) bool {
		if m.IsLeaf() {
			out = append(out, m)
		}
		return true
	})
	return out
}

// LeafClusters returns the set of non-empty cluster names of the leaves
// under n.
func (n *Node) LeafClusters() map[string]bool {
	set := make(map[string]bool)
	n.Walk(func(m *Node) bool {
		if m.IsLeaf() && m.Cluster != "" {
			set[m.Cluster] = true
		}
		return true
	})
	return set
}

// Depth returns the number of levels of the tree: a tree whose root has
// only leaf children has depth 2, matching how the paper counts depth in
// Table 6 (average source depths range from 2.1 to 3.6).
func (t *Tree) Depth() int { return t.Root.height() }

func (n *Node) height() int {
	if n.IsLeaf() {
		return 1
	}
	max := 0
	for _, c := range n.Children {
		if h := c.height(); h > max {
			max = h
		}
	}
	return max + 1
}

// Parent returns the parent of target within the subtree rooted at n, or
// nil if target is n itself or not present.
func (n *Node) Parent(target *Node) *Node {
	var parent *Node
	var rec func(cur *Node) bool
	rec = func(cur *Node) bool {
		for _, c := range cur.Children {
			if c == target {
				parent = cur
				return true
			}
			if rec(c) {
				return true
			}
		}
		return false
	}
	rec(n)
	return parent
}

// Path returns the nodes on the path from the root of t to target,
// inclusive of both, or nil if target is not in the tree.
func (t *Tree) Path(target *Node) []*Node {
	var path []*Node
	var rec func(cur *Node) bool
	rec = func(cur *Node) bool {
		path = append(path, cur)
		if cur == target {
			return true
		}
		for _, c := range cur.Children {
			if rec(c) {
				return true
			}
		}
		path = path[:len(path)-1]
		return false
	}
	if rec(t.Root) {
		return path
	}
	return nil
}

// Clone returns a deep copy of the tree.
func (t *Tree) Clone() *Tree {
	return &Tree{Interface: t.Interface, Root: t.Root.Clone()}
}

// Clone returns a deep copy of the node and its descendants.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	c := &Node{Label: n.Label, Cluster: n.Cluster, Aggregated: n.Aggregated}
	if n.Instances != nil {
		c.Instances = append([]string(nil), n.Instances...)
	}
	if n.MultiClusters != nil {
		c.MultiClusters = append([]string(nil), n.MultiClusters...)
	}
	for _, ch := range n.Children {
		c.Children = append(c.Children, ch.Clone())
	}
	return c
}

// MaxDepth is the deepest level a node of a valid tree may sit at, the
// root's level being 0.
const MaxDepth = 64

// Validate checks structural invariants: the tree has a root, no node is
// shared or part of a cycle, no node lies deeper than MaxDepth, internal
// nodes carry no instances, and cluster names appear only on leaves.
func (t *Tree) Validate() error {
	if t == nil || t.Root == nil {
		return errors.New("schema: tree has no root")
	}
	if t.Interface == "" {
		return errors.New("schema: tree has no interface name")
	}
	seen := getVisited()
	err := validateNode(t.Root, 0, seen)
	putVisited(seen)
	return err
}

// visitedSets is a free list of the node sets Validate finds shared and
// cyclic nodes with. A cleared map keeps its buckets, so validating a tree
// no larger than the ones validated before allocates nothing. Unlike a
// sync.Pool, the list keeps its sets across collections and under the
// race detector, so allocation counts depend on neither. It holds at most
// 16 sets, more than the validations a process runs at once (the pipeline
// validates one tree at a time per request), and drops the ones that held
// more than maxReusedVisited nodes, so clearing a reused set stays cheap.
var visitedSets = make(chan map[*Node]struct{}, 16)

const maxReusedVisited = 1 << 12

func getVisited() map[*Node]struct{} {
	select {
	case m := <-visitedSets:
		return m
	default:
		return make(map[*Node]struct{})
	}
}

func putVisited(m map[*Node]struct{}) {
	if len(m) > maxReusedVisited {
		return
	}
	clear(m)
	select {
	case visitedSets <- m:
	default:
	}
}

func validateNode(n *Node, depth int, seen map[*Node]struct{}) error {
	if n == nil {
		return errors.New("schema: nil node")
	}
	if _, ok := seen[n]; ok {
		return fmt.Errorf("schema: node %q is shared or cyclic", n.Label)
	}
	seen[n] = struct{}{}
	if depth > MaxDepth {
		return fmt.Errorf("schema: tree deeper than %d levels", MaxDepth)
	}
	if n.IsLeaf() && n.Cluster != "" && len(n.MultiClusters) > 0 {
		return fmt.Errorf("schema: leaf %q has both a cluster and multi-clusters", n.Label)
	}
	if !n.IsLeaf() {
		if len(n.Instances) > 0 {
			return fmt.Errorf("schema: internal node %q has instances", n.Label)
		}
		if n.Cluster != "" {
			return fmt.Errorf("schema: internal node %q has a cluster", n.Label)
		}
		if len(n.MultiClusters) > 0 {
			return fmt.Errorf("schema: internal node %q has multi-clusters", n.Label)
		}
		for _, c := range n.Children {
			if err := validateNode(c, depth+1, seen); err != nil {
				return err
			}
		}
	}
	return nil
}

// CountNodes returns (leaves, internal nodes excluding the root).
func (t *Tree) CountNodes() (leaves, internal int) {
	t.Root.Walk(func(n *Node) bool {
		if n.IsLeaf() {
			leaves++
		} else if n != t.Root {
			internal++
		}
		return true
	})
	return
}

// LabeledRatio returns the fraction of nodes (leaves and internal nodes,
// excluding the root) that carry a label — the LQ metric of Table 6.
func (t *Tree) LabeledRatio() float64 {
	total, labeled := 0, 0
	t.Root.Walk(func(n *Node) bool {
		if n == t.Root {
			return true
		}
		total++
		if strings.TrimSpace(n.Label) != "" {
			labeled++
		}
		return true
	})
	if total == 0 {
		return 0
	}
	return float64(labeled) / float64(total)
}

// String renders the tree in an indented one-node-per-line format for
// debugging and the example programs.
func (t *Tree) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "interface %s\n", t.Interface)
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		label := n.Label
		if label == "" {
			label = "(no label)"
		}
		if n.IsLeaf() {
			fmt.Fprintf(&b, "%s- %s", indent, label)
			if n.Cluster != "" {
				fmt.Fprintf(&b, "  [%s]", n.Cluster)
			}
			if len(n.Instances) > 0 {
				fmt.Fprintf(&b, "  {%s}", strings.Join(n.Instances, ", "))
			}
			b.WriteByte('\n')
		} else {
			fmt.Fprintf(&b, "%s+ %s\n", indent, label)
			for _, c := range n.Children {
				rec(c, depth+1)
			}
		}
	}
	for _, c := range t.Root.Children {
		rec(c, 0)
	}
	return b.String()
}

// EncodeTrees serializes a set of interface trees to JSON (the input format
// of cmd/labeler).
func EncodeTrees(trees []*Tree) ([]byte, error) {
	return json.MarshalIndent(trees, "", "  ")
}

// DecodeTrees parses trees serialized by EncodeTrees and validates each.
// It accepts exactly the input json.Unmarshal accepts into []*Tree, and
// builds the same trees, with a Decoder: one pass, no reflection.
func DecodeTrees(data []byte) ([]*Tree, error) {
	var trees []*Tree
	d := NewDecoder(data)
	err := d.Trees(&trees)
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return nil, fmt.Errorf("schema: decoding trees: %w", err)
	}
	for _, t := range trees {
		if err := t.Validate(); err != nil {
			return nil, err
		}
	}
	return trees, nil
}
