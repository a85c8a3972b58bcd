package naming

import (
	"strings"

	"qilabel/internal/cluster"
)

// Level is a naming-consistency level between tuples of a group relation
// (Definition 2). The algorithm proceeds from the strongest level to the
// weakest, relaxing the constraint only when no consistent solution exists
// at the current level.
type Level int

const (
	// LevelString: two tuples share a plain-string-equal label in some
	// cluster.
	LevelString Level = iota + 1
	// LevelEquality: two tuples share an "equal" label (identical
	// content-word sets) in some cluster.
	LevelEquality
	// LevelSynonymy: two tuples share a synonym label in some cluster.
	LevelSynonymy
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelString:
		return "string"
	case LevelEquality:
		return "equality"
	case LevelSynonymy:
		return "synonymy"
	default:
		return "unknown"
	}
}

// admits reports whether two labels related by r make their tuples
// consistent at level l. Levels are cumulative (a string-equal pair also
// satisfies the equality and synonymy levels), matching how the algorithm
// relaxes the constraint.
func (l Level) admits(r Rel) bool {
	switch r {
	case RelStringEqual:
		return true
	case RelEqual:
		return l >= LevelEquality
	case RelSynonym:
		return l >= LevelSynonymy
	}
	return false
}

// probesKey reports whether the blocked partitioning probes the blocks of
// equivalence key k at level l (see Semantics.raise): the "s:" family
// from the equality level on, "y:" at synonymy. Equal labels share an s:
// key and synonyms an s: or y: key.
func (l Level) probesKey(k string) bool {
	switch k[0] {
	case 's':
		return l >= LevelEquality
	case 'y':
		return l >= LevelSynonymy
	}
	return false
}

// TuplesConsistent reports whether two tuples are consistent at the given
// level: there exists a cluster where both supply labels related at the
// level.
func (s *Semantics) TuplesConsistent(a, b cluster.Tuple, level Level) bool {
	n := len(a.Labels)
	if len(b.Labels) < n {
		n = len(b.Labels)
	}
	for i := 0; i < n; i++ {
		la, lb := a.Labels[i], b.Labels[i]
		if la == "" || lb == "" {
			continue
		}
		if level.admits(s.Relate(la, lb)) {
			return true
		}
	}
	return false
}

// Combine implements Definition 3: the non-null components of the result
// are those of r plus the non-null components of s where r has nulls. The
// Instances ride along with their labels so the instance rules keep
// working on combined tuples. The Interface of a combined tuple is the
// comma-join of its contributors, for diagnostics.
func Combine(r, s cluster.Tuple) cluster.Tuple {
	n := len(r.Labels)
	t := cluster.Tuple{
		Interface: r.Interface + "+" + s.Interface,
		Labels:    make([]string, n),
		Instances: make([][]string, n),
	}
	for i := 0; i < n; i++ {
		if r.Labels[i] != "" {
			t.Labels[i] = r.Labels[i]
			t.Instances[i] = r.Instances[i]
		} else if i < len(s.Labels) && s.Labels[i] != "" {
			t.Labels[i] = s.Labels[i]
			t.Instances[i] = s.Instances[i]
		}
	}
	return t
}

// tupleKey identifies a tuple by its label vector, used to deduplicate the
// Combine* closure.
func tupleKey(t cluster.Tuple) string {
	return strings.Join(t.Labels, "\x00")
}

// combineClosureCap bounds the Combine* closure. Group relations have a
// handful of clusters and tens of tuples, so real closures are small; the
// cap guards pathological inputs.
const combineClosureCap = 4096

// CombineClosure implements Combine* (§4.1): it repeatedly combines
// consistent tuple pairs, ignoring duplicates, until no new tuple appears,
// and returns every generated tuple (the originals included). Consistency
// between tuples — including combined ones — is evaluated at the given
// level.
func (s *Semantics) CombineClosure(tuples []cluster.Tuple, level Level) []cluster.Tuple {
	var all []cluster.Tuple
	seen := make(map[string]bool)
	for _, t := range tuples {
		k := tupleKey(t)
		if !seen[k] {
			seen[k] = true
			all = append(all, t)
		}
	}
	for grew := true; grew && len(all) < combineClosureCap; {
		grew = false
		n := len(all)
		for i := 0; i < n && len(all) < combineClosureCap; i++ {
			for j := 0; j < n && len(all) < combineClosureCap; j++ {
				if i == j {
					continue
				}
				if !s.TuplesConsistent(all[i], all[j], level) {
					continue
				}
				// Key the would-be combined tuple into scratch before
				// materializing it: Combine's result is determined by the
				// pair's label vectors, so a key hit means the tuple was
				// already generated and the (allocating) Combine can be
				// skipped. seen[string(buf)] compiles to an alloc-free map
				// probe; the key string is only built for new tuples, as
				// before.
				buf := combinedKeyInto(s.keyBuf[:0], all[i], all[j])
				s.keyBuf = buf
				if seen[string(buf)] {
					continue
				}
				seen[string(buf)] = true
				all = append(all, Combine(all[i], all[j]))
				grew = true
			}
		}
	}
	return all
}

// combinedKeyInto appends tupleKey(Combine(r, u)) to buf without building
// the combined tuple: component i of the combination is r's label when
// non-null, else u's (Definition 3), which is exactly what Combine stores.
func combinedKeyInto(buf []byte, r, u cluster.Tuple) []byte {
	for i := range r.Labels {
		if i > 0 {
			buf = append(buf, 0)
		}
		if r.Labels[i] != "" {
			buf = append(buf, r.Labels[i]...)
		} else if i < len(u.Labels) {
			buf = append(buf, u.Labels[i]...)
		}
	}
	return buf
}

// Expressiveness returns the number of distinct content words across the
// non-null labels of a tuple (§4.2.1): the tuple-solution (Max. Number of
// Stops, Class of Ticket, Preferred Airline) scores 7 and is preferred over
// (Number of Connections, Class of Ticket, Airline Preference), which
// scores 6.
func (s *Semantics) Expressiveness(t cluster.Tuple) int {
	if s.expSeen == nil {
		s.expSeen = make(map[string]bool)
	} else {
		clear(s.expSeen)
	}
	seen := s.expSeen
	for _, l := range t.Labels {
		if l == "" {
			continue
		}
		for _, w := range s.analyze(l).words {
			seen[w.stem] = true
		}
	}
	return len(seen)
}
