package match

import (
	"context"
	"fmt"
	"testing"

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

// TestWarmAssignEquivalence pins the warm matcher's contract the way a
// delta session feeds it: as the source set grows source by source, an
// AssignContext sharing one Warm produces the exact cluster assignment of a
// from-scratch AssignContext without one.
func TestWarmAssignEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			trees := growingCorpus(t, seed, 6)
			w := NewWarm(nil)
			ctx := context.Background()
			var hits int
			for n := 1; n <= len(trees); n++ {
				warm := cloneTrees(trees[:n])
				cold := cloneTrees(trees[:n])
				var pairs PairCounts
				nw, err := AssignContext(ctx, warm, Options{Warm: w, Pairs: &pairs})
				if err != nil {
					t.Fatal(err)
				}
				nc, err := AssignContext(ctx, cold, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if nw != nc {
					t.Fatalf("n=%d: %d clusters warm vs %d from scratch", n, nw, nc)
				}
				assertSameAssignment(t, fmt.Sprintf("n=%d", n), warm, cold)
				if n > 1 && pairs.Hits+pairs.Evaluated == 0 {
					t.Fatalf("n=%d: matcher did no pair work at all", n)
				}
				hits += pairs.Hits
			}
			if hits == 0 {
				t.Fatal("growing the corpus never reused a pair verdict")
			}
		})
	}
}

// TestWarmAssignReuse: re-running over unchanged content derives no block
// key and evaluates no pair — every candidate pair is answered from the
// Warm.
func TestWarmAssignReuse(t *testing.T) {
	trees := growingCorpus(t, 7, 5)
	w := NewWarm(nil)
	ctx := context.Background()
	var first, second PairCounts
	if _, err := AssignContext(ctx, cloneTrees(trees), Options{Warm: w, Pairs: &first}); err != nil {
		t.Fatal(err)
	}
	cold := w.Stats()
	if cold.KeyMisses == 0 || first.Evaluated == 0 {
		t.Fatalf("cold run did no fresh work: %+v %+v", cold, first)
	}
	if _, err := AssignContext(ctx, cloneTrees(trees), Options{Warm: w, Pairs: &second}); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.KeyMisses != cold.KeyMisses {
		t.Fatalf("warm run derived block keys: %+v", st)
	}
	if second.Evaluated != 0 {
		t.Fatalf("warm run evaluated %d pairs", second.Evaluated)
	}
	// The cold run saw the same candidate pairs, some already answered
	// within the run (equal-content fields share a verdict key), so its
	// hits plus evaluations are the warm run's hits.
	if second.Hits != first.Evaluated+first.Hits {
		t.Fatalf("warm run answered %d pairs from cache, cold run saw %d",
			second.Hits, first.Evaluated+first.Hits)
	}
}
