package naming

import "qilabel/internal/cluster"

// Partition is a connected component of the tuple-consistency graph of a
// group relation (§4.1.1). It plays two roles: it identifies the set of
// clusters for which a consistent naming solution can be constructed (the
// union of the non-null cluster sets of its tuples) and it confines the set
// of tuples from which that solution may be built.
type Partition struct {
	// Tuples are the group-relation tuples in this component, in relation
	// order.
	Tuples []cluster.Tuple
	// Covered[i] reports whether cluster i of the relation has a label in
	// some tuple of the partition.
	Covered []bool
}

// CoversAll reports whether the partition covers every cluster of the
// relation — by Proposition 1, exactly the partitions that supply a
// consistent naming solution for the whole group.
func (p *Partition) CoversAll() bool {
	for _, c := range p.Covered {
		if !c {
			return false
		}
	}
	return true
}

// CoveredCount returns the number of clusters the partition covers.
func (p *Partition) CoveredCount() int {
	n := 0
	for _, c := range p.Covered {
		if c {
			n++
		}
	}
	return n
}

// ContainsInterface reports whether the partition contains the tuple
// supplied by the given interface.
func (p *Partition) ContainsInterface(iface string) bool {
	for _, t := range p.Tuples {
		if t.Interface == iface {
			return true
		}
	}
	return false
}

// Partitions computes the maximal partitions of the relation's tuples at
// the given consistency level via connected components of the undirected
// graph whose vertices are tuples and whose edges join consistent tuples.
// Tuples whose entries are all null were already discarded when the
// relation was built.
func (s *Semantics) Partitions(rel *cluster.Relation, level Level) []*Partition {
	n := len(rel.Tuples)
	if n == 0 {
		return nil
	}
	// Union-find over tuple indices.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.TuplesConsistent(rel.Tuples[i], rel.Tuples[j], level) {
				union(i, j)
			}
		}
	}
	// Count each component's tuples first, so every partition's Tuples
	// is allocated once at its final size.
	size := make([]int, n)
	for i := 0; i < n; i++ {
		size[find(i)]++
	}
	byRoot := make([]*Partition, n)
	var order []*Partition
	for i := 0; i < n; i++ {
		r := find(i)
		p := byRoot[r]
		if p == nil {
			p = &Partition{
				Tuples:  make([]cluster.Tuple, 0, size[r]),
				Covered: make([]bool, len(rel.Clusters)),
			}
			byRoot[r] = p
			order = append(order, p)
		}
		p.Tuples = append(p.Tuples, rel.Tuples[i])
		for c, l := range rel.Tuples[i].Labels {
			if l != "" {
				p.Covered[c] = true
			}
		}
	}
	return order
}

// CoveringPartitions filters the partitions that cover all clusters.
func CoveringPartitions(parts []*Partition) []*Partition {
	var out []*Partition
	for _, p := range parts {
		if p.CoversAll() {
			out = append(out, p)
		}
	}
	return out
}

// coveringRequired filters the partitions that cover every required
// (labelable) cluster; columns no interface ever labels are exempt.
func coveringRequired(parts []*Partition, required []bool) []*Partition {
	var out []*Partition
	for _, p := range parts {
		ok := true
		for i, req := range required {
			if req && !p.Covered[i] {
				ok = false
				break
			}
		}
		if ok && p.CoveredCount() > 0 {
			out = append(out, p)
		}
	}
	return out
}
