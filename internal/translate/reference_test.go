package translate

import (
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
		cluster.ExpandOneToMany(trees)
		m, err := cluster.FromTrees(trees)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mr, err := merge.Merge(trees, m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, struct {
			name string
			mr   *merge.Result
		}{name, mr})
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
		ix := NewIndex(c.mr.Sources)
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
	// follows an unclustered one and a nested group, an aggregated root,
	// and no sources at all.
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
			if got, want := NewIndex(srcs).Translate(q), referenceTranslate(mr, q); !reflect.DeepEqual(got, want) {
				t.Fatalf("edge shapes, query %v:\nindex     %+v\nreference %+v", q, got, want)
			}
		}
	}
}
