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
// integer offsets into one string arena: it is projected once per
// integration from the run's table (cluster.Table) and keeps no pointer
// into the trees.
package translate

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"unsafe"

	"qilabel/internal/cluster"
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

// FromTable builds the index of a table's expanded sources, whose cluster
// IDs are numbered (cluster.Table.DeriveMapping, then Prune). A leaf
// without a cluster is not fillable; the first clustered leaf child of an
// Aggregated node stands for the whole aggregate, whose parts are the
// node's clustered children.
func FromTable(tab *cluster.Table) *Index {
	// Sources of one domain share most fields: a few distinct ones each.
	b := indexBuilder{
		tab:      tab,
		spans:    make(map[string]span),
		heads:    make(map[uint64]uint32, 16*len(tab.Sources)),
		labels:   make([]span, len(tab.Labels)),
		clusters: make([]span, len(tab.Names)),
		done:     make([]bool, len(tab.Nodes)),
	}
	for _, src := range tab.Sources {
		iface := b.span(src.Interface)
		rootDone := false
		for _, leaf := range tab.Leaves[src.LeafLo:src.LeafHi] {
			if leaf.Cluster < 0 {
				continue
			}
			var parent *schema.Node
			label, done := src.Label, &rootDone
			if leaf.Parent >= 0 {
				nd := &tab.Nodes[leaf.Parent]
				parent, label, done = nd.Node, nd.Label, &b.done[leaf.Parent]
			} else if root := tab.Trees[leaf.Source].Root; root != leaf.Node {
				parent = root
			}
			switch {
			case parent == nil || !parent.Aggregated:
				b.field(leaf)
			case !*done:
				*done = true
				b.aggregate(parent, label)
			}
		}
		b.sources = append(b.sources, sourceRec{iface: iface, end: uint32(len(b.refs))})
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

// fieldKey files a field under its label ID and its cluster ID (-1 for an
// aggregate); the fields sharing a key are told apart by their raw
// instances or parts.
func fieldKey(label, cluster int32) uint64 {
	return uint64(uint32(label))<<32 | uint64(uint32(cluster))
}

type indexBuilder struct {
	tab   *cluster.Table
	arena []byte
	spans map[string]span // each distinct string is stored once
	// heads holds 1 + the first stored field of each key; next chains the
	// later ones (1 + field ID, 0 ends the chain), and raw holds each
	// stored field's instances or parts.
	heads map[uint64]uint32
	next  []uint32
	raw   [][]string
	// labels and clusters cache the spans of table labels and cluster
	// IDs (a zero span: not cached yet); done marks the Aggregated nodes
	// already referenced.
	labels, clusters []span
	done             []bool
	parts            []string
	sources          []sourceRec
	refs             []uint32
	fields           []fieldRec
	strs             []span
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

// cached returns s's span through the cache slot c.
func (b *indexBuilder) cached(c *span, s string) span {
	if c.end == 0 {
		*c = b.span(s)
	}
	return *c
}

// labelSpan returns the span of a table label (-1: the empty label).
func (b *indexBuilder) labelSpan(id int32) span {
	if id < 0 {
		return b.span("")
	}
	return b.cached(&b.labels[id], b.tab.Labels[id])
}

// field adds a reference to a plain field, storing the field first if
// no earlier source had it.
func (b *indexBuilder) field(leaf cluster.Leaf) {
	k := fieldKey(leaf.Label, leaf.Cluster)
	if b.known(k, leaf.Node.Instances) {
		return
	}
	f := fieldRec{label: b.labelSpan(leaf.Label),
		cluster: b.cached(&b.clusters[leaf.Cluster], b.tab.Names[leaf.Cluster]),
		from:    uint32(len(b.strs))}
	for _, inst := range leaf.Node.Instances {
		b.strs = append(b.strs, b.span(inst))
	}
	b.store(k, f, leaf.Node.Instances)
}

// aggregate adds a reference to the 1:m field n stands for, whose label
// has the given table ID. Its parts set it apart from every plain field.
func (b *indexBuilder) aggregate(n *schema.Node, label int32) {
	b.parts = b.parts[:0]
	for _, part := range n.Children {
		if part.Cluster != "" {
			b.parts = append(b.parts, part.Cluster)
		}
	}
	k := fieldKey(label, -1)
	if b.known(k, b.parts) {
		return
	}
	f := fieldRec{label: b.labelSpan(label), from: uint32(len(b.strs))}
	for _, part := range b.parts {
		b.strs = append(b.strs, b.span(part))
	}
	b.store(k, f, slices.Clone(b.parts))
}

// known adds a reference to the stored field with key k and the given
// instances or parts, if there is one.
func (b *indexBuilder) known(k uint64, raw []string) bool {
	for id := b.heads[k]; id != 0; id = b.next[id-1] {
		if slices.Equal(b.raw[id-1], raw) {
			b.refs = append(b.refs, id-1)
			return true
		}
	}
	return false
}

// store stores f, whose run ends at the end of strs, under k and adds a
// reference to it.
func (b *indexBuilder) store(k uint64, f fieldRec, raw []string) {
	f.to = uint32(len(b.strs))
	id := uint32(len(b.fields))
	b.fields = append(b.fields, f)
	b.raw = append(b.raw, raw)
	b.next = append(b.next, b.heads[k])
	b.heads[k] = id + 1
	b.refs = append(b.refs, id)
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
