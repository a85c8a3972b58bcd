package naming

import (
	"slices"

	"qilabel/internal/cluster"
)

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
	f := newTupleForest(rel)
	s.raise(f, level)
	return s.partitions(f)
}

// tupleForest is a union-find over the tuples of one group relation whose
// components are the relation's partitions at the level it was last raised
// to. Consistency is monotone in the level (a pair consistent at one level
// is consistent at every weaker one), so SolveGroup raises one forest
// through the levels instead of partitioning from scratch at each.
type tupleForest struct {
	rel    *cluster.Relation
	parent []int32
	level  Level // every pair consistent at this level is connected (0: none)
}

func newTupleForest(rel *cluster.Relation) *tupleForest {
	f := &tupleForest{rel: rel, parent: make([]int32, len(rel.Tuples))}
	for i := range f.parent {
		f.parent[i] = int32(i)
	}
	return f
}

func (f *tupleForest) find(x int32) int32 {
	for f.parent[x] != x {
		f.parent[x] = f.parent[f.parent[x]]
		x = f.parent[x]
	}
	return x
}

func (f *tupleForest) union(a, b int32) {
	ra, rb := f.find(a), f.find(b)
	if ra != rb {
		f.parent[rb] = ra
	}
}

// raise connects every pair of tuples consistent at level. The reference
// kernels (NewSemanticsUnmemoized) test every tuple pair. The blocked
// kernel relies on Semantics.EquivalenceKeys: two labels related at a
// level share a key of that level's families, so it compares only the
// labels of one column that share such a key (one block), and only for
// tuples not yet connected:
//
//   - string: a shared "d:" key is string equality itself, so each d: block
//     is unioned outright, without a Relate call;
//   - equality: the "s:" blocks are probed;
//   - synonymy: the "y:" blocks as well.
func (s *Semantics) raise(f *tupleForest, level Level) {
	if level <= f.level {
		return
	}
	tuples := f.rel.Tuples
	if s.noMemo {
		for i := range tuples {
			for j := i + 1; j < len(tuples); j++ {
				if s.TuplesConsistent(tuples[i], tuples[j], level) {
					f.union(int32(i), int32(j))
				}
			}
		}
		f.level = level
		return
	}
	if s.blockIDs == nil {
		s.blockIDs = make(map[blockKey]int32)
	}
	if f.level == 0 {
		// String level: a d: block is named by its first tuple.
		clear(s.blockIDs)
		for i, t := range tuples {
			for c, l := range t.Labels {
				if l == "" {
					continue
				}
				// The d: key comes first; a label without a display form
				// has none and is string-equal to nothing.
				keys := s.EquivalenceKeys(l)
				if len(keys) == 0 || keys[0][0] != 'd' {
					continue
				}
				k := blockKey{c, keys[0]}
				if first, ok := s.blockIDs[k]; ok {
					f.union(first, int32(i))
				} else {
					s.blockIDs[k] = int32(i)
				}
			}
		}
	}
	if level >= LevelEquality {
		s.probeBlocks(f, level)
	}
	f.level = level
}

// blockKey names a block: the labels of one relation column sharing one
// equivalence key.
type blockKey struct {
	col int
	key string
}

// blockMember is one tuple's entry in a block. A block's entries form a
// list from its newest entry back through prev (-1 ends it), all in one
// slice, so joining a block allocates nothing once the slice has grown.
type blockMember struct {
	tuple, prev int32
}

// probeBlocks unions the tuples of each column block of level's probed
// families (see raise) whose labels Relate at level. Tuples join their
// blocks in relation order and each is probed against the earlier members
// it is not yet connected to, once per column however many keys the two
// labels share.
func (s *Semantics) probeBlocks(f *tupleForest, level Level) {
	tuples := f.rel.Tuples
	clear(s.blockIDs)
	s.members = s.members[:0]
	seen := zeroed(s.perTuple, len(tuples))
	s.perTuple = seen
	visit, probes := int32(0), int64(0)
	for i, t := range tuples {
		ti := int32(i)
		for c, l := range t.Labels {
			if l == "" {
				continue
			}
			visit++
			for _, k := range s.EquivalenceKeys(l) {
				if !level.probesKey(k) {
					continue
				}
				newest, ok := s.blockIDs[blockKey{c, k}]
				if !ok {
					newest = -1
				}
				for e := newest; e >= 0; e = s.members[e].prev {
					j := s.members[e].tuple
					if seen[j] == visit || f.find(j) == f.find(ti) {
						continue
					}
					seen[j] = visit
					probes++
					if level.admits(s.Relate(tuples[j].Labels[c], l)) {
						f.union(j, ti)
					}
				}
				s.blockIDs[blockKey{c, k}] = int32(len(s.members))
				s.members = append(s.members, blockMember{ti, newest})
			}
		}
	}
	if s.shared != nil && probes > 0 {
		s.shared.partitionProbes.Add(probes)
	}
}

// partitions lists the forest's components, ordered by their first tuple,
// each with its tuples in relation order.
func (s *Semantics) partitions(f *tupleForest) []*Partition {
	tuples := f.rel.Tuples
	n := len(tuples)
	// Count each component's tuples first, so every partition's Tuples
	// is allocated once at its final size.
	size := zeroed(s.perTuple, n)
	s.perTuple = size
	for i := range tuples {
		size[f.find(int32(i))]++
	}
	byRoot := zeroed(s.roots, n)
	var order []*Partition
	for i, t := range tuples {
		r := f.find(int32(i))
		p := byRoot[r]
		if p == nil {
			p = &Partition{
				Tuples:  make([]cluster.Tuple, 0, size[r]),
				Covered: make([]bool, len(f.rel.Clusters)),
			}
			byRoot[r] = p
			order = append(order, p)
		}
		p.Tuples = append(p.Tuples, t)
		for c, l := range t.Labels {
			if l != "" {
				p.Covered[c] = true
			}
		}
	}
	clear(byRoot) // holds no partition past the call
	s.roots = byRoot
	return order
}

// zeroed returns buf resized to n zero elements, reusing its memory.
func zeroed[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
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
