// Package translate implements the step the paper's system overview places
// after labeling (§1: "a global query submitted against the integrated
// user interface is translated into subqueries against individual
// sources" [5, 13, 27]): given values filled into the integrated
// interface, produce the per-source field assignments each site can
// execute.
//
// Translation walks the cluster mapping backwards:
//
//   - a source field in the cluster receives the global value directly;
//   - a source field with a predefined domain receives the closest
//     matching instance (case-insensitive; a failed match is reported as
//     approximate);
//   - a source field that was a 1:m aggregate ("Passengers" standing for
//     adults/seniors/children/infants) receives the aggregation of its
//     parts — the numeric sum when all parts are numeric, the joined
//     values otherwise;
//   - clusters the source has no field for are reported as unsupported,
//     so the caller can post-filter the source's results.
//
// An Index holds what translation reads of the expanded source trees, as
// integer offsets into one string arena: it is built once per integration
// and keeps no pointer into the trees.
package translate

import (
	"encoding/binary"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"qilabel/internal/schema"
)

// Query assigns values to integrated fields, keyed by cluster name.
type Query map[string]string

// Assignment is one source field filled with a translated value.
type Assignment struct {
	// Label is the source field's label ("" for unlabeled fields).
	Label string
	// Clusters are the integrated fields this assignment covers (several
	// for a 1:m aggregate).
	Clusters []string
	// Value is the value to fill in.
	Value string
	// Approximate marks a value that had to be coerced onto the source
	// field's predefined domain without an exact match.
	Approximate bool
}

// SubQuery is the translation of a global query for one source interface.
type SubQuery struct {
	// Interface is the source interface name.
	Interface string
	// Assignments are the source fields to fill, in interface order.
	Assignments []Assignment
	// Unsupported lists the queried clusters this source cannot express;
	// its results must be post-filtered on these conditions.
	Unsupported []string
}

// Covered reports the fraction of queried clusters the source expresses.
func (s SubQuery) Covered(q Query) float64 {
	if len(q) == 0 {
		return 1
	}
	return float64(len(q)-len(s.Unsupported)) / float64(len(q))
}

// Index is the translation structure of a set of expanded source trees
// (an integration's merge.Result.Sources): for every source, in order, its
// fillable fields in interface order. A field is either a leaf with a
// cluster or a 1:m aggregate, an Aggregated node standing for its
// clustered children. Every string is a span of one arena and every
// distinct field is stored once (sources of one domain repeat most of
// their fields), so the index is five allocations with no pointers inside
// them.
type Index struct {
	arena   string
	sources []sourceRec
	// refs lists each source's fields, as indexes into fields.
	refs   []uint32
	fields []fieldRec
	// strs holds a plain field's instances and an aggregate's part
	// clusters, each field's a contiguous run.
	strs []span
}

// span locates arena[off:end].
type span struct{ off, end uint32 }

// sourceRec is one source: its interface name and the end of its run of
// refs (the run starts where the previous source's ends).
type sourceRec struct {
	iface span
	end   uint32
}

// fieldRec is one fillable field. A plain field has its cluster and its
// instances in strs[from:to]; an aggregate has an empty cluster and its
// parts' clusters in strs[from:to].
type fieldRec struct {
	label, cluster span
	from, to       uint32
}

func (f *fieldRec) aggregate() bool { return f.cluster.off == f.cluster.end }

// NewIndex builds the index of the given expanded source trees. A leaf
// without a cluster is not fillable; the first clustered leaf child of an
// Aggregated node stands for the whole aggregate, whose parts are the
// node's clustered children.
func NewIndex(sources []*schema.Tree) *Index {
	// Sources of one domain share most fields: a few distinct ones each.
	b := indexBuilder{spans: make(map[string]span), ids: make(map[string]uint32, 16*len(sources))}
	for _, t := range sources {
		b.tree(t)
	}
	return &Index{
		arena:   string(b.arena),
		sources: clip(b.sources),
		refs:    clip(b.refs),
		fields:  clip(b.fields),
		strs:    clip(b.strs),
	}
}

// clip copies s into a slice of exactly its length, so the index retains
// no growth slack.
func clip[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return append(make([]T, 0, len(s)), s...)
}

// Size returns the bytes the index's arena and records take.
func (ix *Index) Size() int {
	return len(ix.arena) +
		len(ix.sources)*int(unsafe.Sizeof(sourceRec{})) +
		len(ix.refs)*int(unsafe.Sizeof(uint32(0))) +
		len(ix.fields)*int(unsafe.Sizeof(fieldRec{})) +
		len(ix.strs)*int(unsafe.Sizeof(span{}))
}

type indexBuilder struct {
	arena   []byte
	spans   map[string]span   // each distinct string is stored once
	ids     map[string]uint32 // each distinct field, keyed by its strings
	sources []sourceRec
	refs    []uint32
	fields  []fieldRec
	strs    []span
	key     []byte
}

func (b *indexBuilder) span(s string) span {
	if sp, ok := b.spans[s]; ok {
		return sp
	}
	sp := span{uint32(len(b.arena)), uint32(len(b.arena) + len(s))}
	b.arena = append(b.arena, s...)
	b.spans[s] = sp
	return sp
}

func (b *indexBuilder) tree(t *schema.Tree) {
	iface := b.span(t.Interface)
	if t.Root.IsLeaf() {
		if t.Root.Cluster != "" {
			b.field(t.Root)
		}
	} else {
		b.children(t.Root)
	}
	b.sources = append(b.sources, sourceRec{iface: iface, end: uint32(len(b.refs))})
}

// children records the fillable fields under internal node n in
// interface (pre-)order.
func (b *indexBuilder) children(n *schema.Node) {
	aggregated := false
	for _, c := range n.Children {
		switch {
		case !c.IsLeaf():
			b.children(c)
		case c.Cluster == "":
		case !n.Aggregated:
			b.field(c)
		case !aggregated:
			aggregated = true
			b.aggregate(n)
		}
	}
}

// field adds a reference to a plain field, storing the field first if
// no earlier source had it.
func (b *indexBuilder) field(leaf *schema.Node) {
	b.key = appendString(appendString(b.key[:0], leaf.Label), leaf.Cluster)
	for _, inst := range leaf.Instances {
		b.key = appendString(b.key, inst)
	}
	if b.known() {
		return
	}
	f := fieldRec{label: b.span(leaf.Label), cluster: b.span(leaf.Cluster), from: uint32(len(b.strs))}
	for _, inst := range leaf.Instances {
		b.strs = append(b.strs, b.span(inst))
	}
	b.store(f)
}

// aggregate adds a reference to the 1:m field n stands for. Its key's
// empty cluster sets it apart from every plain field.
func (b *indexBuilder) aggregate(n *schema.Node) {
	b.key = appendString(appendString(b.key[:0], n.Label), "")
	for _, part := range n.Children {
		if part.Cluster != "" {
			b.key = appendString(b.key, part.Cluster)
		}
	}
	if b.known() {
		return
	}
	f := fieldRec{label: b.span(n.Label), from: uint32(len(b.strs))}
	for _, part := range n.Children {
		if part.Cluster != "" {
			b.strs = append(b.strs, b.span(part.Cluster))
		}
	}
	b.store(f)
}

// known adds a reference to the field keyed by b.key if it is stored.
func (b *indexBuilder) known() bool {
	id, ok := b.ids[string(b.key)]
	if ok {
		b.refs = append(b.refs, id)
	}
	return ok
}

// store stores f, whose run ends at the end of strs, under b.key and adds
// a reference to it.
func (b *indexBuilder) store(f fieldRec) {
	f.to = uint32(len(b.strs))
	id := uint32(len(b.fields))
	b.fields = append(b.fields, f)
	b.ids[string(b.key)] = id
	b.refs = append(b.refs, id)
}

// appendString appends s with a length prefix, so distinct string
// sequences never encode alike.
func appendString(b []byte, s string) []byte {
	return append(binary.LittleEndian.AppendUint32(b, uint32(len(s))), s...)
}

func (ix *Index) str(sp span) string { return ix.arena[sp.off:sp.end] }

// Translate maps a global query onto every indexed source. Sources
// contributing no queried cluster yield a SubQuery with no assignments and
// every cluster unsupported.
func (ix *Index) Translate(q Query) []SubQuery {
	if len(ix.sources) == 0 {
		return nil
	}
	queried := make([]string, 0, len(q))
	for c := range q {
		queried = append(queried, c)
	}
	sort.Strings(queried)
	covered := make([]bool, len(queried))
	cover := func(c string) { covered[sort.SearchStrings(queried, c)] = true }

	out := make([]SubQuery, len(ix.sources))
	from := uint32(0)
	for i, src := range ix.sources {
		clear(covered)
		sub := SubQuery{Interface: ix.str(src.iface)}
		for _, id := range ix.refs[from:src.end] {
			f := &ix.fields[id]
			if f.aggregate() {
				if a, ok := ix.aggregate(f, q); ok {
					sub.Assignments = append(sub.Assignments, a)
					for _, c := range a.Clusters {
						cover(c)
					}
				}
				continue
			}
			cluster := ix.str(f.cluster)
			value, ok := q[cluster]
			if !ok {
				continue
			}
			cover(cluster)
			sub.Assignments = append(sub.Assignments, ix.coerce(f, cluster, value))
		}
		from = src.end
		for k, c := range queried {
			if !covered[k] {
				sub.Unsupported = append(sub.Unsupported, c)
			}
		}
		out[i] = sub
	}
	return out
}

// aggregate folds the queried values of a 1:m field's parts back into the
// single source field: numeric values sum (2 adults + 1 senior -> 3
// passengers), anything else joins with commas.
func (ix *Index) aggregate(f *fieldRec, q Query) (Assignment, bool) {
	var clusters []string
	var values []string
	numeric := true
	sum := 0
	for _, sp := range ix.strs[f.from:f.to] {
		c := ix.str(sp)
		v, ok := q[c]
		if !ok {
			continue
		}
		clusters = append(clusters, c)
		values = append(values, v)
		if n, err := strconv.Atoi(strings.TrimSpace(v)); err == nil {
			sum += n
		} else {
			numeric = false
		}
	}
	if len(clusters) == 0 {
		return Assignment{}, false
	}
	a := Assignment{Label: ix.str(f.label), Clusters: clusters}
	if numeric {
		a.Value = strconv.Itoa(sum)
	} else {
		a.Value = strings.Join(values, ", ")
	}
	return a, true
}

// coerce fits a value onto a plain field, snapping to the predefined
// domain when one exists.
func (ix *Index) coerce(f *fieldRec, cluster, value string) Assignment {
	a := Assignment{Label: ix.str(f.label), Clusters: []string{cluster}, Value: value}
	instances := ix.strs[f.from:f.to]
	if len(instances) == 0 {
		return a
	}
	want := strings.ToLower(strings.TrimSpace(value))
	for _, sp := range instances {
		if inst := ix.str(sp); strings.ToLower(strings.TrimSpace(inst)) == want {
			a.Value = inst
			return a
		}
	}
	// No exact instance: try a unique prefix/containment match.
	var candidates []string
	for _, sp := range instances {
		inst := ix.str(sp)
		low := strings.ToLower(inst)
		if strings.HasPrefix(low, want) || strings.Contains(low, want) {
			candidates = append(candidates, inst)
		}
	}
	if len(candidates) == 1 {
		a.Value = candidates[0]
		a.Approximate = true
		return a
	}
	a.Approximate = true
	return a
}
