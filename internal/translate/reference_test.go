package translate

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// indexOf projects the index of expanded trees as the pipeline does, from
// their table with its derived mapping. A shape DeriveMapping rejects, two
// fields of one interface in a cluster, cannot reach FromTable in
// production; for the edge shapes that carry one, the clusters are
// numbered here instead, in order of first appearance.
func indexOf(sources []*schema.Tree) *Index {
	tab := cluster.NewTable(sources)
	if _, err := tab.DeriveMapping(); err != nil {
		ids := make(map[string]int32)
		tab.Names = nil
		for i := range tab.Leaves {
			l := &tab.Leaves[i]
			l.Cluster = -1
			if c := l.Node.Cluster; c != "" {
				id, ok := ids[c]
				if !ok {
					id = int32(len(tab.Names))
					ids[c] = id
					tab.Names = append(tab.Names, c)
				}
				l.Cluster = id
			}
		}
	}
	return FromTable(tab)
}

// treeIndex is the tree walk FromTable replaced: it builds the index of
// the given expanded source trees by walking them. A leaf
// without a cluster is not fillable; the first clustered leaf child of an
// Aggregated node stands for the whole aggregate, whose parts are the
// node's clustered children.
func treeIndex(sources []*schema.Tree) *Index {
	// Sources of one domain share most fields: a few distinct ones each.
	b := treeBuilder{spans: make(map[string]span), ids: make(map[string]uint32, 16*len(sources))}
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

type treeBuilder struct {
	arena   []byte
	spans   map[string]span   // each distinct string is stored once
	ids     map[string]uint32 // each distinct field, keyed by its strings
	sources []sourceRec
	refs    []uint32
	fields  []fieldRec
	strs    []span
	key     []byte
}

func (b *treeBuilder) span(s string) span {
	if sp, ok := b.spans[s]; ok {
		return sp
	}
	sp := span{uint32(len(b.arena)), uint32(len(b.arena) + len(s))}
	b.arena = append(b.arena, s...)
	b.spans[s] = sp
	return sp
}

func (b *treeBuilder) tree(t *schema.Tree) {
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
func (b *treeBuilder) children(n *schema.Node) {
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
func (b *treeBuilder) field(leaf *schema.Node) {
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
func (b *treeBuilder) aggregate(n *schema.Node) {
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
func (b *treeBuilder) known() bool {
	id, ok := b.ids[string(b.key)]
	if ok {
		b.refs = append(b.refs, id)
	}
	return ok
}

// store stores f, whose run ends at the end of strs, under b.key and adds
// a reference to it.
func (b *treeBuilder) store(f fieldRec) {
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

// referenceTranslate is the tree walk Index replaces: every source's
// leaves in pre-order, each leaf's parent found by a search from the root,
// aggregates deduplicated by node identity. TestIndexMatchesReference pins
// the index to it.
func referenceTranslate(mr *merge.Result, q Query) []SubQuery {
	var out []SubQuery
	for _, src := range mr.Sources {
		out = append(out, referenceOne(src, q))
	}
	return out
}

func referenceOne(src *schema.Tree, q Query) SubQuery {
	sub := SubQuery{Interface: src.Interface}
	covered := make(map[string]bool, len(q))
	aggDone := make(map[*schema.Node]bool)

	for _, leaf := range src.Leaves() {
		if leaf.Cluster == "" {
			continue
		}
		parent := src.Root.Parent(leaf)
		if parent != nil && parent.Aggregated {
			if aggDone[parent] {
				continue
			}
			aggDone[parent] = true
			if a, ok := referenceAggregate(parent, q); ok {
				sub.Assignments = append(sub.Assignments, a)
				for _, c := range a.Clusters {
					covered[c] = true
				}
			}
			continue
		}
		value, ok := q[leaf.Cluster]
		if !ok {
			continue
		}
		covered[leaf.Cluster] = true
		sub.Assignments = append(sub.Assignments, referenceCoerce(leaf, value))
	}

	var missing []string
	for c := range q {
		if !covered[c] {
			missing = append(missing, c)
		}
	}
	sort.Strings(missing)
	sub.Unsupported = missing
	return sub
}

func referenceAggregate(parent *schema.Node, q Query) (Assignment, bool) {
	var clusters []string
	var values []string
	numeric := true
	sum := 0
	for _, child := range parent.Children {
		if child.Cluster == "" {
			continue
		}
		v, ok := q[child.Cluster]
		if !ok {
			continue
		}
		clusters = append(clusters, child.Cluster)
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
	a := Assignment{Label: parent.Label, Clusters: clusters}
	if numeric {
		a.Value = strconv.Itoa(sum)
	} else {
		a.Value = strings.Join(values, ", ")
	}
	return a, true
}

func referenceCoerce(leaf *schema.Node, value string) Assignment {
	a := Assignment{Label: leaf.Label, Clusters: []string{leaf.Cluster}, Value: value}
	if len(leaf.Instances) == 0 {
		return a
	}
	want := strings.ToLower(strings.TrimSpace(value))
	for _, inst := range leaf.Instances {
		if strings.ToLower(strings.TrimSpace(inst)) == want {
			a.Value = inst
			return a
		}
	}
	var candidates []string
	for _, inst := range leaf.Instances {
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

// randomQuery draws a query over the integration's clusters: values are
// the instances of a member field (verbatim, re-cased, padded, as a
// prefix or infix), numbers, or free text, and some keys name clusters
// no source has.
func randomQuery(r *rand.Rand, mr *merge.Result) Query {
	q := Query{}
	clusters := mr.Mapping.Clusters
	for n := r.IntN(8); n >= 0; n-- {
		if r.IntN(6) == 0 {
			q[fmt.Sprintf("c_unknown_%d", r.IntN(3))] = "x"
			continue
		}
		c := clusters[r.IntN(len(clusters))]
		var instances []string
		if len(c.Members) > 0 {
			instances = c.Members[r.IntN(len(c.Members))].Leaf.Instances
		}
		switch k := r.IntN(7); {
		case k < 4 && len(instances) > 0:
			inst := instances[r.IntN(len(instances))]
			switch k {
			case 0:
				q[c.Name] = inst
			case 1:
				q[c.Name] = "  " + strings.ToUpper(inst) + " "
			case 2:
				q[c.Name] = inst[:1+r.IntN(len(inst))]
			default:
				q[c.Name] = inst[r.IntN(len(inst)):]
			}
		case k < 6:
			q[c.Name] = strconv.Itoa(r.IntN(5))
		default:
			q[c.Name] = []string{"", "zeppelin", "a", "Economy"}[r.IntN(4)]
		}
	}
	return q
}

// pruned clears the cluster of every leaf whose cluster appears on fewer
// than two sources, as WithMinFrequency(2) does, so unclustered leaves sit
// next to clustered ones.
func pruned(trees []*schema.Tree) []*schema.Tree {
	freq := make(map[string]map[string]bool)
	for _, t := range trees {
		for _, l := range t.Leaves() {
			if freq[l.Cluster] == nil {
				freq[l.Cluster] = make(map[string]bool)
			}
			freq[l.Cluster][t.Interface] = true
		}
	}
	for _, t := range trees {
		for _, l := range t.Leaves() {
			if len(freq[l.Cluster]) < 2 {
				l.Cluster = ""
			}
		}
	}
	return trees
}

// TestIndexMatchesReference runs random queries through the index and the
// reference walk over the seven domains (with their 1:m fields), the small
// and medium synth presets at several seeds, pruned variants of both, and
// hand-built edge shapes. It also checks that the queries reached
// aggregates, approximate coercions and unsupported clusters.
func TestIndexMatchesReference(t *testing.T) {
	var cases []struct {
		name string
		mr   *merge.Result
	}
	add := func(name string, trees []*schema.Tree) {
		cases = append(cases, struct {
			name string
			mr   *merge.Result
		}{name, integrated(t, trees)})
	}
	for _, d := range dataset.Domains() {
		add(d.Name, d.Generate())
		add(d.Name+"/pruned", pruned(d.Generate()))
	}
	for _, preset := range []string{"small", "medium"} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg, err := synth.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			trees, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("%s/%d", preset, seed), trees)
			trees, _ = synth.Generate(cfg)
			add(fmt.Sprintf("%s/%d/pruned", preset, seed), pruned(trees))
		}
	}

	var aggregates, approximate, unsupported int
	r := rand.New(rand.NewPCG(7, 11))
	for _, c := range cases {
		ix := indexOf(c.mr.Sources)
		if want := treeIndex(c.mr.Sources); !reflect.DeepEqual(ix, want) {
			t.Fatalf("%s: the projected index differs from the tree walk's", c.name)
		}
		for i := 0; i < 40; i++ {
			q := randomQuery(r, c.mr)
			got, want := ix.Translate(q), referenceTranslate(c.mr, q)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, query %v:\nindex     %+v\nreference %+v", c.name, q, got, want)
			}
			for _, sub := range got {
				if len(sub.Unsupported) > 0 {
					unsupported++
				}
				for _, a := range sub.Assignments {
					if len(a.Clusters) > 1 {
						aggregates++
					}
					if a.Approximate {
						approximate++
					}
				}
			}
		}
	}
	t.Logf("%d cases: %d aggregate, %d approximate assignments, %d sub-queries with unsupported clusters",
		len(cases), aggregates, approximate, unsupported)
	if aggregates == 0 || approximate == 0 || unsupported == 0 {
		t.Fatal("the queries missed aggregates, approximate coercions or unsupported clusters")
	}

	// Shapes the pipeline does not produce but a tree may carry: a root
	// that is itself a field, an aggregate whose first clustered child
	// follows an unclustered one and a nested group, a cluster with two
	// fields of one interface, an aggregated root, and no sources at all.
	leafRoot := &schema.Tree{Interface: "leaf", Root: schema.NewField("Only", "c_A", "One", "Two")}
	mixed := schema.NewTree("mixed",
		&schema.Node{Label: "Who", Aggregated: true, Children: []*schema.Node{
			schema.NewField("x", ""),
			schema.NewGroup("g", schema.NewField("In", "c_B")),
			schema.NewField("Adults", "c_A"),
			schema.NewField("Kids", "c_C"),
		}},
		schema.NewField("Tail", "c_B", "b1"),
	)
	aggRoot := &schema.Tree{Interface: "aggroot", Root: &schema.Node{Aggregated: true, Children: []*schema.Node{
		schema.NewField("P", "c_A"), schema.NewField("Q", "c_C"),
	}}}
	for _, srcs := range [][]*schema.Tree{{leafRoot, mixed, aggRoot}, nil} {
		mr := &merge.Result{Sources: srcs}
		for _, q := range []Query{{}, {"c_A": "2", "c_C": "3"}, {"c_A": "t", "c_B": "B", "c_Z": "z"}, {"c_C": "kid"}} {
			ix := indexOf(srcs)
			if !reflect.DeepEqual(ix, treeIndex(srcs)) {
				t.Fatal("edge shapes: the projected index differs from the tree walk's")
			}
			if got, want := ix.Translate(q), referenceTranslate(mr, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("edge shapes, query %v:\nindex     %+v\nreference %+v", q, got, want)
			}
		}
	}
}
