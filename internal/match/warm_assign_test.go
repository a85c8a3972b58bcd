package match

import (
	"fmt"
	"strings"
	"testing"

	"qilabel/internal/naming"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// growingCorpus generates a synthetic domain and strips the cluster
// annotations so the matcher has real work to do.
func growingCorpus(t *testing.T, seed uint64, sources int) []*schema.Tree {
	t.Helper()
	trees, err := synth.Generate(synth.Config{
		Seed:    seed,
		Domain:  fmt.Sprintf("inc%d", seed),
		Sources: sources,
		Perturb: synth.Perturb{SynonymSwap: 0.4, Noise: 0.3, Dropout: 0.2, Reorder: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			leaf.Cluster = ""
		}
	}
	return trees
}

func cloneTrees(trees []*schema.Tree) []*schema.Tree {
	out := make([]*schema.Tree, len(trees))
	for i, tr := range trees {
		out[i] = tr.Clone()
	}
	return out
}

// fieldLabels lists the trimmed leaf labels the matcher compares, the
// labels a run's analysis table must cover.
func fieldLabels(trees []*schema.Tree) []string {
	var labels []string
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			if l := strings.TrimSpace(leaf.Label); l != "" {
				labels = append(labels, l)
			}
		}
	}
	return labels
}

func assertSameAssignment(t *testing.T, step string, a, b []*schema.Tree) {
	t.Helper()
	for i := range a {
		la, lb := a[i].Leaves(), b[i].Leaves()
		if len(la) != len(lb) {
			t.Fatalf("%s: tree %d leaf count %d vs %d", step, i, len(la), len(lb))
		}
		for j := range la {
			if la[j].Cluster != lb[j].Cluster {
				t.Fatalf("%s: tree %d leaf %d (%q): cluster %q vs %q",
					step, i, j, la[j].Label, la[j].Cluster, lb[j].Cluster)
			}
		}
	}
}

// TestWarmAssignEquivalence pins the matcher's contract over the warm
// cache the way a delta session feeds it: as the source set grows source
// by source, a run over an analysis table one naming.Warm builds produces
// the exact cluster assignment of a run with no analysis table, and the
// growing runs hit the Warm's Relate verdicts.
func TestWarmAssignEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			trees := growingCorpus(t, seed, 6)
			w := naming.NewWarm(nil)
			for n := 1; n <= len(trees); n++ {
				warm := cloneTrees(trees[:n])
				cold := cloneTrees(trees[:n])
				var probed int
				nw := assign(t, warm, Options{Analysis: w.Analysis(fieldLabels(warm)), Pairs: &probed})
				nc := assign(t, cold, Options{})
				if nw != nc {
					t.Fatalf("n=%d: %d clusters warm vs %d from scratch", n, nw, nc)
				}
				assertSameAssignment(t, fmt.Sprintf("n=%d", n), warm, cold)
				if n > 1 && probed == 0 {
					t.Fatalf("n=%d: matcher did no pair work at all", n)
				}
			}
			if st := w.Stats(); st.VerdictHits == 0 {
				t.Fatalf("growing the corpus never reused a Relate verdict: %+v", st)
			}
		})
	}
}

// TestWarmAssignReuse: re-running over unchanged content analyzes no label
// and evaluates no Relate verdict afresh — every label and every verdict
// the second run needs is answered from the Warm — and probes exactly the
// pairs the first run probed.
func TestWarmAssignReuse(t *testing.T) {
	trees := growingCorpus(t, 7, 5)
	w := naming.NewWarm(nil)
	run := func() int {
		got := cloneTrees(trees)
		var probed int
		assign(t, got, Options{Analysis: w.Analysis(fieldLabels(got)), Pairs: &probed})
		return probed
	}
	first := run()
	cold := w.Stats()
	if cold.LabelMisses == 0 || cold.VerdictMisses == 0 || first == 0 {
		t.Fatalf("cold run did no fresh work: %+v, %d pairs probed", cold, first)
	}
	second := run()
	st := w.Stats()
	if st.LabelMisses != cold.LabelMisses || st.VerdictMisses != cold.VerdictMisses {
		t.Fatalf("warm run analyzed labels or evaluated verdicts: cold %+v, warm %+v", cold, st)
	}
	if st.VerdictHits == cold.VerdictHits {
		t.Fatalf("warm run answered no verdict from the Warm: %+v", st)
	}
	if second != first {
		t.Fatalf("warm run probed %d pairs, cold run %d", second, first)
	}
}

// TestSerialAssignReachesWarm: every worker of the blocked pass, the first
// one included, reads the run's analysis table, so a serial run over a
// table a naming.Warm built consults the Warm's Relate verdicts.
func TestSerialAssignReachesWarm(t *testing.T) {
	trees := growingCorpus(t, 3, 6)
	w := naming.NewWarm(nil)
	var probed int
	opts := Options{Parallelism: 1, Analysis: w.Analysis(fieldLabels(trees)), Pairs: &probed}
	assign(t, trees, opts)
	if probed == 0 {
		t.Fatal("the serial run evaluated no pair")
	}
	if st := w.Stats(); st.VerdictHits+st.VerdictMisses == 0 {
		t.Fatalf("a serial run evaluated %d pairs without consulting the Warm: %+v", probed, st)
	}
}
