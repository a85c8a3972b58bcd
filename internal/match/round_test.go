package match

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

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
		var probed int
		got, err := AssignContext(context.Background(), cloneTrees(trees),
			Options{Parallelism: par, Pairs: &probed})
		if err != nil {
			t.Fatal(err)
		}
		if got != 1 {
			t.Fatalf("par=%d: %d clusters, want 1", par, got)
		}
		if probed != want {
			t.Fatalf("par=%d: probed %d pairs, want the first round's %d (all pairs: %d)",
				par, probed, want, n*(n-1)/2)
		}
	}
}

// TestRoundsScheduleIndependent: the probed pairs are a function of the
// input alone, so their count, and the population of Relate verdicts they
// leave in a fresh naming.Warm, come out identical at every Parallelism,
// and the assignment equals the exhaustive reference pass.
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
		var wantProbed, wantVerdicts int
		for _, par := range []int{1, 2, 4, 8} {
			step := fmt.Sprintf("seed %d par %d", seed, par)
			w := naming.NewWarm(nil)
			var probed int
			got := cloneTrees(trees)
			opts := Options{Parallelism: par, Analysis: w.Analysis(fieldLabels(got)), Pairs: &probed}
			if _, err := AssignContext(ctx, got, opts); err != nil {
				t.Fatal(err)
			}
			assertSameAssignment(t, step, got, ref)
			verdicts := w.Stats().Verdicts
			if par == 1 {
				wantProbed, wantVerdicts = probed, verdicts
				continue
			}
			if probed != wantProbed || verdicts != wantVerdicts {
				t.Fatalf("%s: probed %d pairs, cached %d verdicts; serial: %d and %d",
					step, probed, verdicts, wantProbed, wantVerdicts)
			}
		}
	}
}
