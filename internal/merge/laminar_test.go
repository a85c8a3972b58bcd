package merge

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// crosses reports whether two sets overlap without one containing the
// other: the map form the oracle and the laminar-property checks use.
func crosses(a, b map[string]bool) bool {
	inter := 0
	for x := range a {
		if b[x] {
			inter++
		}
	}
	return inter > 0 && inter != len(a) && inter != len(b)
}

// unionCrossingOracle is the definition of the union sequence: at every
// step it scans all live pairs for the lexicographically smallest crossing
// pair (keyA, keyB), keyA < keyB, and replaces the pair with its union,
// folding the evidence into a live unit that already has the union's set.
// Live units are kept sorted by key, so the first crossing pair the scan
// meets is the smallest one.
func unionCrossingOracle(units map[string]*unit) []*unit {
	type named struct {
		u     *unit
		names []string // sorted
	}
	live := make([]named, 0, len(units))
	for _, u := range units {
		live = append(live, named{u, strings.Split(u.key, "\x00")})
	}
	for {
		sort.Slice(live, func(i, j int) bool { return live[i].u.key < live[j].u.key })
		ai, bi := -1, -1
	scan:
		for i := range live {
			for j := i + 1; j < len(live); j++ {
				if crossesSorted(live[i].names, live[j].names) {
					ai, bi = i, j
					break scan
				}
			}
		}
		if ai < 0 {
			out := make([]*unit, len(live))
			for i, n := range live {
				out[i] = n.u
			}
			return out
		}
		a, b := live[ai].u, live[bi].u
		live = append(live[:bi], live[bi+1:]...)
		live = append(live[:ai], live[ai+1:]...)
		clusters := make(map[string]bool, a.size+b.size)
		for c := range a.clusters {
			clusters[c] = true
		}
		for c := range b.clusters {
			clusters[c] = true
		}
		k := key(clusters)
		var ex *unit
		for _, v := range live {
			if v.u.key == k {
				ex = v.u
			}
		}
		if ex != nil {
			ex.support += a.support + b.support
			ex.occurrences = append(ex.occurrences, a.occurrences...)
			ex.occurrences = append(ex.occurrences, b.occurrences...)
			continue
		}
		live = append(live, named{&unit{key: k, clusters: clusters, size: len(clusters),
			support:     a.support + b.support,
			occurrences: append(append([]occurrence(nil), a.occurrences...), b.occurrences...)},
			strings.Split(k, "\x00")})
	}
}

// crossesSorted is crosses over sorted name lists.
func crossesSorted(a, b []string) bool {
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
	}
	return inter && (aOnly || i < len(a)) && (bOnly || j < len(b))
}

// cloneUnits deep-copies a unit map, so runs that fold evidence into
// shared occurrence slices cannot see each other's appends.
func cloneUnits(units map[string]*unit) map[string]*unit {
	out := make(map[string]*unit, len(units))
	for k, u := range units {
		c := *u
		c.occurrences = append([]occurrence(nil), u.occurrences...)
		out[k] = &c
	}
	return out
}

// diffFamilies reports the first difference between two families sorted
// by key: sets, support and the order of the occurrences.
func diffFamilies(got, want []*unit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d units, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.key != w.key || g.size != w.size || g.support != w.support ||
			len(g.clusters) != g.size || len(g.occurrences) != len(w.occurrences) {
			return fmt.Sprintf("unit %d: %q size %d support %d occurrences %d, want %q size %d support %d occurrences %d",
				i, g.key, g.size, g.support, len(g.occurrences), w.key, w.size, w.support, len(w.occurrences))
		}
		if key(g.clusters) != g.key {
			return fmt.Sprintf("unit %d: clusters %v disagree with key %q", i, g.clusters, g.key)
		}
		for j, o := range g.occurrences {
			if o != w.occurrences[j] {
				return fmt.Sprintf("unit %d (%q): occurrence %d differs", i, g.key, j)
			}
		}
	}
	return ""
}

// unitsOf collects the merge units of a corpus whose leaves carry their
// clusters.
func unitsOf(t testing.TB, trees []*schema.Tree) (map[string]*unit, int) {
	t.Helper()
	m, err := cluster.FromTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	universe := make(map[string]bool, len(m.Clusters))
	for _, c := range m.Clusters {
		universe[c.Name] = true
	}
	return collectUnits(trees, universe), len(universe)
}

// checkUnionSequence runs the indexed union loop, the pair-heap reference
// and the oracle on copies of the same units and compares the families,
// then compares selectLaminar with the reference's filtered family. It
// returns the indexed loop's family.
func checkUnionSequence(t *testing.T, name string, units map[string]*unit, universeSize int) []*unit {
	t.Helper()
	got, err := unionCrossing(context.Background(), cloneUnits(units))
	if err != nil {
		t.Fatal(err)
	}
	ref := unionCrossingPairHeap(cloneUnits(units))
	if d := diffFamilies(got, ref); d != "" {
		t.Fatalf("%s: unionCrossing vs pair heap: %s", name, d)
	}
	if d := diffFamilies(got, unionCrossingOracle(cloneUnits(units))); d != "" {
		t.Fatalf("%s: unionCrossing vs oracle: %s", name, d)
	}
	for i, u := range got {
		for _, v := range got[i+1:] {
			if crosses(u.clusters, v.clusters) {
				t.Fatalf("%s: family not laminar: %q crosses %q", name, u.key, v.key)
			}
		}
	}
	sel, err := selectLaminar(context.Background(), cloneUnits(units), universeSize)
	if err != nil {
		t.Fatal(err)
	}
	var filtered []*unit
	for _, u := range ref {
		if u.size < universeSize {
			filtered = append(filtered, u)
		}
	}
	if d := diffFamilies(sel, dropUnobservedNesting(filtered)); d != "" {
		t.Fatalf("%s: selectLaminar vs pair heap: %s", name, d)
	}
	return got
}

// TestSelectLaminarOrderFixture pins the union order on the smallest input
// where it matters: {1,2}, {2,3} and {1,3} cross pairwise, and unioning
// the smallest pair ({1,2}, {1,3}) first leaves {1,2,3} and {2,3}, where
// any other first union leaves {1,3} or {1,2} instead. A fourth cluster
// keeps {1,2,3} below the whole universe.
func TestSelectLaminarOrderFixture(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("G12", schema.NewField("1", "c_1"), schema.NewField("2", "c_2")),
			schema.NewField("3", "c_3"), schema.NewField("4", "c_4")),
		schema.NewTree("s2",
			schema.NewGroup("G23", schema.NewField("2", "c_2"), schema.NewField("3", "c_3")),
			schema.NewField("1", "c_1"), schema.NewField("4", "c_4")),
		schema.NewTree("s3",
			schema.NewGroup("G13", schema.NewField("1", "c_1"), schema.NewField("3", "c_3")),
			schema.NewField("2", "c_2"), schema.NewField("4", "c_4")),
	}
	units, universeSize := unitsOf(t, trees)
	if universeSize != 4 || len(units) != 3 {
		t.Fatalf("fixture has %d clusters and %d units, want 4 and 3", universeSize, len(units))
	}
	family := checkUnionSequence(t, "fixture", units, universeSize)
	var keys []string
	for _, u := range family {
		keys = append(keys, strings.ReplaceAll(u.key, "\x00", ","))
	}
	if got, want := strings.Join(keys, " "), "c_1,c_2,c_3 c_2,c_3"; got != want {
		t.Fatalf("family = %s, want %s", got, want)
	}
	if family[0].support != 2 || family[1].support != 1 {
		t.Errorf("supports = %d, %d, want 2 (the unioned pair) and 1", family[0].support, family[1].support)
	}
}

// TestSelectLaminarMatchesReference compares the indexed union loop with
// the pair-heap reference and the oracle on the property test's random
// corpora and on larger random corpora with heavily overlapping groups.
func TestSelectLaminarMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		units, n := unitsOf(t, randomTrees(seed))
		checkUnionSequence(t, fmt.Sprintf("randomTrees(%d)", seed), units, n)
	}
	large := 1000
	if testing.Short() {
		large = 200
	}
	unions := 0
	for seed := uint64(0); seed < uint64(large); seed++ {
		trees := randomOverlapTrees(rand.New(rand.NewPCG(seed, 17)))
		units, n := unitsOf(t, trees)
		fam := checkUnionSequence(t, fmt.Sprintf("randomOverlapTrees(%d)", seed), units, n)
		unions += len(units) - len(fam)
	}
	if unions == 0 {
		t.Fatal("the random corpora never needed a union")
	}
}

// TestSelectLaminarMegaSubset compares the three on the units of a
// 192-source subset of a 288-source mega-preset population.
func TestSelectLaminarMegaSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("mega corpus skipped in -short mode")
	}
	units, n := unitsOf(t, megaSubset(t))
	fam := checkUnionSequence(t, "mega subset", units, n)
	t.Logf("%d units over %d clusters, %d left after the unions", len(units), n, len(fam))
}

// megaSubset draws 192 of 288 mega-preset sources, 1:m-expanded: the
// corpus shape of the mega-cold benchmark workload, with the generator's
// clusters in place of the matcher's.
func megaSubset(t testing.TB) []*schema.Tree {
	t.Helper()
	cfg, err := synth.Preset("mega")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sources = 288
	pop, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	idx := rand.New(rand.NewPCG(5, 1)).Perm(len(pop))[:192]
	sort.Ints(idx)
	trees := make([]*schema.Tree, len(idx))
	for k, i := range idx {
		trees[k] = pop[i]
	}
	cluster.ExpandOneToMany(trees)
	return trees
}

// randomOverlapTrees generates 2–65 interfaces over a pool of 4–160
// clusters. Each interface shows a window of the pool with some fields
// dropped, cut into groups at random points and nested up to three levels,
// so groups of different interfaces overlap without nesting.
func randomOverlapTrees(r *rand.Rand) []*schema.Tree {
	pool := 4 + r.IntN(157)
	nTrees := 2 + r.IntN(64)
	var group func(fields []*schema.Node, depth int) []*schema.Node
	group = func(fields []*schema.Node, depth int) []*schema.Node {
		if depth == 0 || len(fields) < 2 {
			return fields
		}
		var out []*schema.Node
		for len(fields) > 0 {
			n := 1 + r.IntN(min(len(fields), 6))
			part := fields[:n]
			fields = fields[n:]
			if n >= 2 && r.IntN(3) > 0 {
				out = append(out, schema.NewGroup("G", group(part, depth-1)...))
			} else {
				out = append(out, part...)
			}
		}
		return out
	}
	trees := make([]*schema.Tree, nTrees)
	for ti := range trees {
		width := 2 + r.IntN(min(pool-1, 24))
		start := r.IntN(pool - width + 1)
		var fields []*schema.Node
		for c := start; c < start+width; c++ {
			if r.IntN(5) > 0 {
				name := fmt.Sprintf("c_%03d", c)
				fields = append(fields, schema.NewField("F"+name, name))
			}
		}
		trees[ti] = schema.NewTree(fmt.Sprintf("t%d", ti), group(fields, 1+r.IntN(3))...)
	}
	return trees
}

// TestUnionCrossingMemoryLinear bounds what the union loop allocates on a
// request with many clusters: 20,000 disjoint two-cluster units over
// 40,000 clusters. Merge runs on untrusted requests, so the working sets
// must cost what the units hold, not units × clusters.
func TestUnionCrossingMemoryLinear(t *testing.T) {
	const n = 20000
	units := make(map[string]*unit, n)
	for i := 0; i < n; i++ {
		clusters := map[string]bool{fmt.Sprintf("c%06d", 2*i): true, fmt.Sprintf("c%06d", 2*i+1): true}
		k := key(clusters)
		units[k] = &unit{key: k, clusters: clusters, support: 1, size: 2}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fam, err := unionCrossing(context.Background(), units)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != n {
		t.Fatalf("%d units after the unions, want %d", len(fam), n)
	}
	perUnit := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes allocated per unit", perUnit)
	const limit = 2048
	if perUnit > limit {
		t.Fatalf("%.0f bytes allocated per unit, limit %d", perUnit, limit)
	}
}
