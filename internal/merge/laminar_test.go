package merge

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// unionCrossingOracle is the definition of the union sequence: at every
// step it scans all live pairs for the lexicographically smallest crossing
// pair (keyA, keyB), keyA < keyB, of joined-name keys, and replaces the
// pair with its union, folding the evidence into a live unit that already
// has the union's set. Live units are kept sorted by key, so the first
// crossing pair the scan meets is the smallest one. It works on names
// (names[r] is the name of rank r), so it also checks that rank order is
// name order.
func unionCrossingOracle(units map[string]*unit, names []string) []*unit {
	type named struct {
		u     *unit
		names []string // sorted
		key   string
	}
	nameKey := func(ns []string) string { return strings.Join(ns, "\x00") }
	rankOf := make(map[string]int32, len(names))
	for r, n := range names {
		rankOf[n] = int32(r)
	}
	live := make([]named, 0, len(units))
	for _, u := range units {
		ns := make([]string, len(u.set))
		for i, r := range u.set {
			ns[i] = names[r]
		}
		sort.Strings(ns)
		live = append(live, named{u, ns, nameKey(ns)})
	}
	for {
		sort.Slice(live, func(i, j int) bool { return live[i].key < live[j].key })
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
		a, b := live[ai], live[bi]
		live = append(live[:bi], live[bi+1:]...)
		live = append(live[:ai], live[ai+1:]...)
		union := map[string]bool{}
		for _, c := range append(append([]string(nil), a.names...), b.names...) {
			union[c] = true
		}
		ns := make([]string, 0, len(union))
		for c := range union {
			ns = append(ns, c)
		}
		sort.Strings(ns)
		k := nameKey(ns)
		var ex *unit
		for _, v := range live {
			if v.key == k {
				ex = v.u
			}
		}
		if ex != nil {
			ex.support += a.u.support + b.u.support
			ex.occurrences = append(ex.occurrences, a.u.occurrences...)
			ex.occurrences = append(ex.occurrences, b.u.occurrences...)
			continue
		}
		set := make([]int32, len(ns))
		for i, c := range ns {
			set[i] = rankOf[c]
		}
		live = append(live, named{&unit{set: set, support: a.u.support + b.u.support,
			occurrences: append(append([]int32(nil), a.u.occurrences...), b.u.occurrences...)},
			ns, k})
	}
}

// crossesSorted is crossing over sorted name lists.
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
		out[k] = &unit{set: u.set, key: u.key, support: u.support,
			occurrences: append([]int32(nil), u.occurrences...), alive: true}
	}
	return out
}

// diffFamilies reports the first difference between two families sorted
// by set: sets, support and the order of the occurrences.
func diffFamilies(got, want []*unit) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d units, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if !slices.Equal(g.set, w.set) || g.support != w.support || len(g.occurrences) != len(w.occurrences) {
			return fmt.Sprintf("unit %d: %v support %d occurrences %d, want %v support %d occurrences %d",
				i, g.set, g.support, len(g.occurrences), w.set, w.support, len(w.occurrences))
		}
		if g.key != "" && g.key != string(appendIDs(nil, g.set)) {
			return fmt.Sprintf("unit %d: key disagrees with set %v", i, g.set)
		}
		if !slices.Equal(g.occurrences, w.occurrences) {
			return fmt.Sprintf("unit %d (%v): occurrences %v, want %v", i, g.set, g.occurrences, w.occurrences)
		}
	}
	return ""
}

// corpus is a table of annotated trees with its merge units.
type corpus struct {
	tab   *cluster.Table
	units map[string]*unit
	names []string // by rank
}

// unitsOf collects the merge units of a corpus whose leaves carry their
// clusters.
func unitsOf(t testing.TB, trees []*schema.Tree) corpus {
	t.Helper()
	tab := tableOf(t, trees)
	byRank, rank := ranks(tab.Names)
	names := make([]string, len(byRank))
	for r, id := range byRank {
		names[r] = tab.Names[id]
	}
	return corpus{tab, collectUnits(tab, rank), names}
}

// checkUnionSequence runs the indexed union loop, the pair-heap reference
// and the oracle on copies of the same units and compares the families,
// then compares selectLaminar with the reference's filtered family. It
// returns the indexed loop's family.
func checkUnionSequence(t *testing.T, name string, c corpus) []*unit {
	t.Helper()
	n := len(c.names)
	got, err := unionCrossing(context.Background(), cloneUnits(c.units), n)
	if err != nil {
		t.Fatal(err)
	}
	ref := unionCrossingPairHeap(cloneUnits(c.units), n)
	if d := diffFamilies(got, ref); d != "" {
		t.Fatalf("%s: unionCrossing vs pair heap: %s", name, d)
	}
	if d := diffFamilies(got, unionCrossingOracle(cloneUnits(c.units), c.names)); d != "" {
		t.Fatalf("%s: unionCrossing vs oracle: %s", name, d)
	}
	for i, u := range got {
		for _, v := range got[i+1:] {
			if crossesIDs(u.set, v.set) {
				t.Fatalf("%s: family not laminar: %v crosses %v", name, u.set, v.set)
			}
		}
	}
	sel, err := selectLaminar(context.Background(), c.tab.Nodes, cloneUnits(c.units), n)
	if err != nil {
		t.Fatal(err)
	}
	var filtered []*unit
	for _, u := range ref {
		if len(u.set) < n {
			filtered = append(filtered, u)
		}
	}
	if d := diffFamilies(sel, dropUnobservedNesting(c.tab.Nodes, filtered)); d != "" {
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
	c := unitsOf(t, trees)
	if len(c.names) != 4 || len(c.units) != 3 {
		t.Fatalf("fixture has %d clusters and %d units, want 4 and 3", len(c.names), len(c.units))
	}
	family := checkUnionSequence(t, "fixture", c)
	var keys []string
	for _, u := range family {
		var ns []string
		for _, r := range u.set {
			ns = append(ns, c.names[r])
		}
		keys = append(keys, strings.Join(ns, ","))
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
		checkUnionSequence(t, fmt.Sprintf("randomTrees(%d)", seed), unitsOf(t, randomTrees(seed)))
	}
	large := 1000
	if testing.Short() {
		large = 200
	}
	unions := 0
	for seed := uint64(0); seed < uint64(large); seed++ {
		trees := randomOverlapTrees(rand.New(rand.NewPCG(seed, 17)))
		c := unitsOf(t, trees)
		fam := checkUnionSequence(t, fmt.Sprintf("randomOverlapTrees(%d)", seed), c)
		unions += len(c.units) - len(fam)
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
	c := unitsOf(t, megaSubset(t))
	fam := checkUnionSequence(t, "mega subset", c)
	t.Logf("%d units over %d clusters, %d left after the unions", len(c.units), len(c.names), len(fam))
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
	for i := int32(0); i < n; i++ {
		set := []int32{2 * i, 2*i + 1}
		k := string(appendIDs(nil, set))
		units[k] = &unit{set: set, key: k, support: 1, alive: true}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fam, err := unionCrossing(context.Background(), units, 2*n)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != n {
		t.Fatalf("%d units after the unions, want %d", len(fam), n)
	}
	perUnit := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.0f bytes allocated per unit", perUnit)
	const limit = 512
	if perUnit > limit {
		t.Fatalf("%.0f bytes allocated per unit, limit %d", perUnit, limit)
	}
}
