// Package cluster implements the mapping structure of §2.1 of the paper:
// the clusters that record the 1:1 and 1:m matchings between semantically
// equivalent fields of different query interfaces in a domain, the
// reduction of 1:m matches to 1:1 matches by leaf expansion, and the group
// relations (the (n+1)-ary relations of §4.1) that the naming algorithm
// consumes.
package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"qilabel/internal/schema"
)

// Member is one field of a cluster: a leaf of a source schema tree together
// with the interface it comes from.
type Member struct {
	Interface string
	Leaf      *schema.Node
}

// Cluster groups all fields (leaves) of different schemas that are
// semantically equivalent, e.g. c_Adult = {Adults@aa, Adult@airfareplanet,
// Adults@british, ...}. Interfaces without a matching field simply have no
// member (the "null entry" of Table 1).
type Cluster struct {
	// Name is the internal identifier of the cluster (never shown to
	// users), e.g. "c_Adult".
	Name    string
	Members []Member
}

// LabelFor returns the (display-raw) label the given interface supplies for
// this cluster, or "" if the interface has no field in the cluster or the
// field is unlabeled.
func (c *Cluster) LabelFor(iface string) string {
	for _, m := range c.Members {
		if m.Interface == iface {
			return m.Leaf.Label
		}
	}
	return ""
}

// MemberFor returns the member supplied by the interface, if any.
func (c *Cluster) MemberFor(iface string) (Member, bool) {
	for _, m := range c.Members {
		if m.Interface == iface {
			return m, true
		}
	}
	return Member{}, false
}

// Labels returns the distinct non-empty labels of the cluster's members in
// first-seen order.
func (c *Cluster) Labels() []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range c.Members {
		l := strings.TrimSpace(m.Leaf.Label)
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		out = append(out, l)
	}
	return out
}

// LabelFrequency counts, per distinct label, the number of interfaces
// supplying it for this cluster.
func (c *Cluster) LabelFrequency() map[string]int {
	freq := make(map[string]int)
	for _, m := range c.Members {
		if l := strings.TrimSpace(m.Leaf.Label); l != "" {
			freq[l]++
		}
	}
	return freq
}

// Instances returns the union of the instance sets of all members carrying
// the given label; with label "" it unions across all members. This is
// domain(l) in LI 6.
func (c *Cluster) Instances(label string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, m := range c.Members {
		if label != "" && !strings.EqualFold(strings.TrimSpace(m.Leaf.Label), label) {
			continue
		}
		for _, v := range m.Leaf.Instances {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Frequency returns the number of interfaces contributing a member.
func (c *Cluster) Frequency() int { return len(c.Members) }

// Mapping is the set of clusters of one domain.
type Mapping struct {
	Clusters []*Cluster
	byName   map[string]*Cluster
}

// NewMapping builds a mapping from clusters, indexing them by name.
func NewMapping(clusters ...*Cluster) *Mapping {
	m := &Mapping{byName: make(map[string]*Cluster)}
	for _, c := range clusters {
		m.add(c)
	}
	return m
}

func (m *Mapping) add(c *Cluster) {
	m.Clusters = append(m.Clusters, c)
	m.byName[c.Name] = c
}

// Get returns the cluster with the given name, or nil.
func (m *Mapping) Get(name string) *Cluster { return m.byName[name] }

// ExpandOneToMany rewrites every leaf participating in a 1:m correspondence
// (schema.Node.MultiClusters) into an internal node whose children have 1:1
// correspondences with the clusters on the many side, as described in §2.1:
// the "Passengers" leaf becomes an internal node labeled "Passengers" with
// four unlabeled children in c_Adult, c_Senior, c_Child and c_Infant.
// Consequently the original label becomes a candidate label for an internal
// node and is removed from the clusters it occurred in. Trees are modified
// in place.
func ExpandOneToMany(trees []*schema.Tree) {
	for _, t := range trees {
		var expand func(n *schema.Node)
		expand = func(n *schema.Node) {
			for _, c := range n.Children {
				expand(c)
			}
			if !n.IsLeaf() || len(n.MultiClusters) == 0 {
				return
			}
			clusters := n.MultiClusters
			n.MultiClusters = nil
			// The leaf becomes an internal node; its instances, if any,
			// are dropped (they described the aggregate, not the parts).
			n.Instances = nil
			n.Cluster = ""
			n.Aggregated = true
			for _, cl := range clusters {
				n.Children = append(n.Children, &schema.Node{Cluster: cl})
			}
		}
		expand(t.Root)
	}
}

// FromTrees derives the mapping from the cluster annotations on the leaves
// of the given trees. Call ExpandOneToMany first; leaves still carrying
// MultiClusters are rejected. Cluster order follows first appearance across
// trees; unannotated leaves are ignored (they correspond to source-specific
// fields the matcher could not align).
func FromTrees(trees []*schema.Tree) (*Mapping, error) {
	// Count each cluster's fields first, so every Members slice is
	// allocated once at its final size.
	leaves := make([][]*schema.Node, len(trees))
	counts := make(map[string]int)
	for i, t := range trees {
		leaves[i] = t.Leaves()
		for _, leaf := range leaves[i] {
			if leaf.Cluster != "" {
				counts[leaf.Cluster]++
			}
		}
	}
	// An interface's members of a cluster are the last ones appended while
	// its tree is read, so the last member tells whether the tree already
	// supplied the cluster; only a tree named like an earlier one, which
	// may have supplied it before other trees did, needs the scan.
	named := make(map[string]bool, len(trees))
	m := NewMapping()
	for i, t := range trees {
		shared := named[t.Interface]
		named[t.Interface] = true
		for _, leaf := range leaves[i] {
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
				c = &Cluster{Name: leaf.Cluster, Members: make([]Member, 0, counts[leaf.Cluster])}
				m.add(c)
			}
			dup := len(c.Members) > 0 && c.Members[len(c.Members)-1].Interface == t.Interface
			if !dup && shared {
				_, dup = c.MemberFor(t.Interface)
			}
			if dup {
				return nil, fmt.Errorf(
					"cluster: interface %s supplies two fields for cluster %s",
					t.Interface, leaf.Cluster)
			}
			c.Members = append(c.Members, Member{Interface: t.Interface, Leaf: leaf})
		}
	}
	return m, nil
}

// Tuple is one row of a group relation: the labels one interface supplies
// for the clusters of a group. Labels[i] == "" is the null entry. The
// instances of the underlying fields ride along for LI 6 / LI 7.
type Tuple struct {
	Interface string
	Labels    []string
	Instances [][]string
}

// NonNull returns the number of non-null label components.
func (t Tuple) NonNull() int {
	n := 0
	for _, l := range t.Labels {
		if l != "" {
			n++
		}
	}
	return n
}

// Relation is a group relation (§4.1): an (n+1)-ary relation whose
// attributes are the n clusters of a group plus the interface name, with
// one tuple per interface that labels at least one cluster of the group.
type Relation struct {
	Clusters []*Cluster
	Tuples   []Tuple
}

// BuildRelation assembles the group relation of the given clusters over the
// given interfaces (in tree order). Interfaces whose entries are all null
// are discarded, as in §4.1.1. An interface contributes the label of its
// member leaf; members with empty labels contribute null entries (their
// labels cannot support any consistency), but their instances are kept.
func BuildRelation(group []*Cluster, interfaces []string) *Relation {
	// Row j of the relation holds its labels and instances at
	// [j*k, (j+1)*k) of two arrays; row[iface] is the first row of iface.
	k := len(group)
	row := make(map[string]int, len(interfaces))
	for j := len(interfaces) - 1; j >= 0; j-- {
		row[interfaces[j]] = j
	}
	labels := make([]string, len(interfaces)*k)
	instances := make([][]string, len(interfaces)*k)
	for i, c := range group {
		// In reverse, so that the first member of an interface is written
		// last and wins, as MemberFor finds it.
		for mi := len(c.Members) - 1; mi >= 0; mi-- {
			if j, ok := row[c.Members[mi].Interface]; ok {
				leaf := c.Members[mi].Leaf
				labels[j*k+i] = strings.TrimSpace(leaf.Label)
				instances[j*k+i] = leaf.Instances
			}
		}
	}
	nonNull := func(j int) bool {
		return slices.ContainsFunc(labels[j*k:(j+1)*k], func(l string) bool { return l != "" })
	}
	kept := 0
	for _, iface := range interfaces {
		if nonNull(row[iface]) {
			kept++
		}
	}
	r := &Relation{Clusters: group}
	if kept > 0 {
		r.Tuples = make([]Tuple, 0, kept)
	}
	for j, iface := range interfaces {
		first := row[iface]
		if !nonNull(first) {
			continue
		}
		t := Tuple{
			Interface: iface,
			Labels:    labels[first*k : (first+1)*k : (first+1)*k],
			Instances: instances[first*k : (first+1)*k : (first+1)*k],
		}
		if first != j {
			// A repeated interface repeats its first row, in slices of its own.
			t.Labels, t.Instances = slices.Clone(t.Labels), slices.Clone(t.Instances)
		}
		r.Tuples = append(r.Tuples, t)
	}
	return r
}

// Interfaces lists the interface names appearing in the trees, in order.
func Interfaces(trees []*schema.Tree) []string {
	out := make([]string, len(trees))
	for i, t := range trees {
		out[i] = t.Interface
	}
	return out
}

// Validate checks mapping invariants: unique cluster names and at most one
// member per interface per cluster.
func (m *Mapping) Validate() error {
	if m == nil {
		return errors.New("cluster: nil mapping")
	}
	names := make(map[string]bool)
	for _, c := range m.Clusters {
		if c.Name == "" {
			return errors.New("cluster: unnamed cluster")
		}
		if names[c.Name] {
			return fmt.Errorf("cluster: duplicate cluster %s", c.Name)
		}
		names[c.Name] = true
		ifaces := make(map[string]bool)
		for _, mem := range c.Members {
			if mem.Leaf == nil {
				return fmt.Errorf("cluster: %s has a nil member leaf", c.Name)
			}
			if ifaces[mem.Interface] {
				return fmt.Errorf("cluster: %s has two members from %s", c.Name, mem.Interface)
			}
			ifaces[mem.Interface] = true
		}
	}
	return nil
}

// String renders the relation as the tabular layout the paper uses
// (Tables 1-4), for diagnostics and the example programs.
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteString("interface")
	for _, c := range r.Clusters {
		b.WriteString("\t")
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for _, t := range r.Tuples {
		b.WriteString(t.Interface)
		for _, l := range t.Labels {
			b.WriteString("\t")
			if l == "" {
				b.WriteString("-")
			} else {
				b.WriteString(l)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
