package merge

import (
	"slices"
	"sort"
)

// iunit is the interned working form of a unit inside
// unionCrossingPairHeap: the cluster set is a sorted slice of cluster
// ranks, as in a unit.
type iunit struct {
	set         []int32
	mkey        string // binary encoding of set: the work-map dedup key
	support     int
	occurrences []int32
	alive       bool
}

// lamPair is a candidate crossing pair with a.set < b.set. Pairs are only
// created while both endpoints are alive; a live unit's set never changes,
// so a popped pair with two live endpoints is still crossing.
type lamPair struct{ a, b *iunit }

func pairLess(x, y lamPair) bool {
	if c := slices.Compare(x.a.set, y.a.set); c != 0 {
		return c < 0
	}
	return slices.Compare(x.b.set, y.b.set) < 0
}

// unionCrossingPairHeap is the reference unionCrossing is tested against:
// the same union sequence from a min-heap of every crossing pair, fed by an
// inverted cluster→units index. Two units can only cross if they share a
// cluster, every unit's crossing partners are enumerated once at its
// creation, and stale heap entries (an endpoint already merged away) are
// discarded lazily on pop. It returns the whole family sorted by set.
func unionCrossingPairHeap(units map[string]*unit, universeSize int) []*unit {
	ius := make([]*iunit, 0, len(units))
	work := make(map[string]*iunit, len(units))
	for _, u := range units {
		w := &iunit{set: u.set, mkey: string(appendIDs(nil, u.set)), support: u.support,
			occurrences: u.occurrences, alive: true}
		work[w.mkey] = w
		ius = append(ius, w)
	}

	// Inverted index clusterID → indices into ius. Dead units linger in the
	// lists and are skipped on enumeration; seen-stamps dedupe partners that
	// share several clusters with the probe unit.
	inv := make([][]int32, universeSize)
	seen := make([]int, len(ius))
	stamp := 0
	var heap pairHeap
	// enumerate pushes the crossing pairs between w (index wi, not yet in
	// inv) and every live unit already indexed, then indexes w. Feeding the
	// index incrementally yields each unordered pair exactly once.
	enumerate := func(w *iunit, wi int32) {
		stamp++
		for _, c := range w.set {
			for _, vi := range inv[c] {
				v := ius[vi]
				if !v.alive || seen[vi] == stamp {
					continue
				}
				seen[vi] = stamp
				if crossesIDs(w.set, v.set) {
					p := lamPair{a: w, b: v}
					if slices.Compare(v.set, w.set) < 0 {
						p = lamPair{a: v, b: w}
					}
					heap.push(p)
				}
			}
			inv[c] = append(inv[c], wi)
		}
	}
	for i, w := range ius {
		enumerate(w, int32(i))
	}

	for len(heap) > 0 {
		p := heap.pop()
		if !p.a.alive || !p.b.alive {
			continue
		}
		a, b := p.a, p.b
		a.alive, b.alive = false, false
		delete(work, a.mkey)
		delete(work, b.mkey)
		merged := unionIDs(a.set, b.set)
		k := string(appendIDs(nil, merged))
		if ex, ok := work[k]; ok {
			// The union coincides with a live unit: its set — and therefore
			// its already-enumerated crossing pairs — are unchanged, so only
			// the evidence is folded in.
			ex.support += a.support + b.support
			ex.occurrences = append(ex.occurrences, a.occurrences...)
			ex.occurrences = append(ex.occurrences, b.occurrences...)
		} else {
			w := &iunit{set: merged, mkey: k, support: a.support + b.support,
				occurrences: append(append([]int32(nil),
					a.occurrences...), b.occurrences...), alive: true}
			work[k] = w
			wi := int32(len(ius))
			ius = append(ius, w)
			seen = append(seen, 0)
			enumerate(w, wi)
		}
	}

	out := make([]*unit, 0, len(work))
	for _, w := range work {
		out = append(out, &unit{set: w.set, key: w.mkey, support: w.support, occurrences: w.occurrences})
	}
	sort.Slice(out, func(i, j int) bool { return slices.Compare(out[i].set, out[j].set) < 0 })
	return out
}

// crossesIDs reports whether two sorted ID sets overlap without one
// containing the other, with an early exit once all three witnesses
// (shared element, a-only element, b-only element) are found.
func crossesIDs(a, b []int32) bool {
	inter, aOnly, bOnly := false, false, false
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter = true
			i++
			j++
		case a[i] < b[j]:
			aOnly = true
			i++
		default:
			bOnly = true
			j++
		}
		if inter && aOnly && bOnly {
			return true
		}
	}
	if i < len(a) {
		aOnly = true
	}
	if j < len(b) {
		bOnly = true
	}
	return inter && aOnly && bOnly
}

// pairHeap is a hand-rolled binary min-heap of candidate crossing pairs
// ordered by pairLess; pairs are unique by their endpoint sets, so pop
// order is deterministic.
type pairHeap []lamPair

func (h *pairHeap) push(p lamPair) {
	*h = append(*h, p)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !pairLess(s[i], s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *pairHeap) pop() lamPair {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = lamPair{}
	*h = s[:n]
	s = s[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && pairLess(s[l], s[small]) {
			small = l
		}
		if r < n && pairLess(s[r], s[small]) {
			small = r
		}
		if small == i {
			break
		}
		s[i], s[small] = s[small], s[i]
		i = small
	}
	return top
}
