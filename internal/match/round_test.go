package match

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/schema"
)

// probes is the number of candidate pairs one run looked at: verdicts
// answered from the warm cache plus verdicts evaluated.
func probes(p PairCounts) int { return p.Hits + p.Evaluated }

// TestRoundsSkipConnectedCandidates: N interfaces each hold one field with
// the same label, so every pair is a candidate and every candidate
// matches. The first round's rows probe all their candidates and connect
// everything; no later row probes a pair, because every candidate of it
// is already in its component. An exhaustive blocked pass would probe all
// N(N-1)/2 pairs.
func TestRoundsSkipConnectedCandidates(t *testing.T) {
	const n = 2*roundRows + 7
	trees := make([]*schema.Tree, n)
	for i := range trees {
		trees[i] = schema.NewTree(fmt.Sprintf("s%03d", i), schema.NewField("City", ""))
	}
	want := 0 // row i of the first round probes every j > i
	for i := 0; i < roundRows; i++ {
		want += n - 1 - i
	}
	for _, par := range []int{1, 4} {
		for _, warm := range []*Warm{nil, NewWarm(nil)} {
			var pairs PairCounts
			got, err := AssignContext(context.Background(), cloneTrees(trees),
				Options{Parallelism: par, Warm: warm, Pairs: &pairs})
			if err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("par=%d warm=%v: %d clusters, want 1", par, warm != nil, got)
			}
			if probes(pairs) != want {
				t.Fatalf("par=%d warm=%v: probed %d pairs, want the first round's %d (all pairs: %d)",
					par, warm != nil, probes(pairs), want, n*(n-1)/2)
			}
		}
	}
}

// TestRoundsScheduleIndependent: the probed pairs are a function of the
// input alone, so their count and the warm pair-cache population come out
// identical at every Parallelism, and the assignment equals the exhaustive
// reference pass. Only the sum of Hits and Evaluated is pinned, not the
// split: two workers can evaluate one content pair in the same run, so the
// split varies with scheduling. Twenty runs over seed 1's corpus at
// Parallelism 4 (GOMAXPROCS 4) split its 1,860 probes as {Hits 1699,
// Evaluated 161} or {1700, 160}.
func TestRoundsScheduleIndependent(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 4; seed++ {
		trees := growingCorpus(t, seed, 40)
		if fields, _ := collectFields(trees); len(fields) <= 3*roundRows {
			t.Fatalf("seed %d: %d fields span too few rounds", seed, len(fields))
		}
		ref := cloneTrees(trees)
		if _, err := AssignContext(ctx, ref, Options{DisableBlocking: true}); err != nil {
			t.Fatal(err)
		}
		var wantProbed, wantPairs int
		for _, par := range []int{1, 2, 4, 8} {
			step := fmt.Sprintf("seed %d par %d", seed, par)
			w := NewWarm(nil)
			var pairs PairCounts
			got := cloneTrees(trees)
			if _, err := AssignContext(ctx, got, Options{Parallelism: par, Warm: w, Pairs: &pairs}); err != nil {
				t.Fatal(err)
			}
			assertSameAssignment(t, step, got, ref)
			if par == 1 {
				wantProbed, wantPairs = probes(pairs), w.Stats().Pairs
				continue
			}
			if probes(pairs) != wantProbed || w.Stats().Pairs != wantPairs {
				t.Fatalf("%s: probed %d pairs, cached %d verdicts; serial: %d and %d",
					step, probes(pairs), w.Stats().Pairs, wantProbed, wantPairs)
			}
		}
	}
}
