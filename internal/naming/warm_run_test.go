package naming

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
)

// domainMerge builds a fresh merge result for one corpus domain. Run
// labels the merged tree in place, so every Run call needs its own.
func domainMerge(t *testing.T, domain string) *merge.Result {
	t.Helper()
	d, err := dataset.ByName(domain)
	if err != nil {
		t.Fatal(err)
	}
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	m, err := cluster.FromTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := merge.Merge(trees, m)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// renderNaming serializes every observable of a naming result: the labeled
// tree, the classification, each group's relation/solution/report, the
// isolated labels and the rule counters.
func renderNaming(res *Result) string {
	var b strings.Builder
	var walk func(n *schema.Node, depth int)
	walk = func(n *schema.Node, depth int) {
		fmt.Fprintf(&b, "%s%q cluster=%q inst=%v\n",
			strings.Repeat(" ", depth), n.Label, n.Cluster, n.Instances)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(res.Tree.Root, 0)
	fmt.Fprintf(&b, "class=%v counters=%v\n", res.Class, res.Counters)
	for _, g := range res.Groups {
		chosen := "<nil>"
		if g.Chosen != nil {
			chosen = fmt.Sprintf("%v@%d consistent=%v repaired=%v",
				g.Chosen.Labels, g.Chosen.Level, g.Chosen.Consistent, g.Chosen.Repaired)
		}
		fmt.Fprintf(&b, "group %v root=%v tuples=%d solutions=%d chosen=%s\n",
			g.Clusters, g.IsRoot, len(g.Outcome.Relation.Tuples), len(g.Outcome.Solutions), chosen)
		for _, c := range g.Outcome.Relation.Clusters {
			fmt.Fprintf(&b, "  relcluster %s members=%d\n", c.Name, len(c.Members))
		}
	}
	fmt.Fprintf(&b, "isolated=%v\n", res.IsolatedLabels)
	for _, n := range res.Nodes {
		fmt.Fprintf(&b, "node %q rule=%d assigned=%q consistent=%v promoted=%v cands=%d\n",
			n.Node.Label, n.Rule, n.Assigned, n.GroupConsistent, n.Promoted, len(n.Candidates))
	}
	return b.String()
}

// TestWarmRunEquivalence pins the warm cache's contract on every corpus
// domain: runs whose analysis table is interned through a Warm produce
// results indistinguishable from a plain Run — tree labels,
// classification, group reports, isolated labels, node reports and rule
// counters. The first pass fills the Warm; the later ones resolve every
// label and shared verdict from it.
func TestWarmRunEquivalence(t *testing.T) {
	for _, d := range dataset.Domains() {
		t.Run(d.Name, func(t *testing.T) {
			base, err := Run(domainMerge(t, d.Name), Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := renderNaming(base)

			w := NewWarm(nil)
			for pass := 0; pass < 3; pass++ {
				mr := domainMerge(t, d.Name)
				res, err := Run(mr, Options{Analysis: w.Analysis(sourceLabels(mr.Sources))})
				if err != nil {
					t.Fatal(err)
				}
				if got := renderNaming(res); got != want {
					t.Fatalf("pass %d diverges:\n--- warm\n%s--- plain\n%s", pass, got, want)
				}
			}
			if st := w.Stats(); st.LabelHits == 0 || st.VerdictHits == 0 {
				t.Fatalf("repeated runs never hit the Warm: %+v", st)
			}
		})
	}
}

// TestWarmDoesNotPinRuns: the Warm must not keep a run alive. Once that
// run's result is dropped, its source leaves are collectable.
func TestWarmDoesNotPinRuns(t *testing.T) {
	w := NewWarm(nil)
	collected := make(chan struct{})
	func() {
		mr := domainMerge(t, "Airline")
		leaf := mr.Groups[0][0].Members[0].Leaf
		runtime.SetFinalizer(leaf, func(*schema.Node) { close(collected) })
		if _, err := Run(mr, Options{Analysis: w.Analysis(sourceLabels(mr.Sources))}); err != nil {
			t.Fatal(err)
		}
	}()
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("a source leaf of a dropped run is still reachable from the Warm")
	}
}
