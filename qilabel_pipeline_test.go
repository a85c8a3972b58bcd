package qilabel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/synth"
)

// Tests of the pipeline entry that IntegrateContext and every Session
// operation share, and of the session's source multiset around it.

// sessionPool generates a deterministic source pool for session tests.
// Dropout keeps per-source concept coverage partial, as in real pools.
func sessionPool(t *testing.T, seed uint64, sources int) []*Tree {
	t.Helper()
	trees, err := synth.Generate(synth.Config{
		Seed: seed, Domain: "deltaunit", Sources: sources,
		Concepts: 8, GroupFanout: 3, Depth: 2,
		Perturb: synth.Perturb{SynonymSwap: 0.4, Noise: 0.3, Dropout: 0.4, Reorder: 0.4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

// assertMatchesCold pins the session's result against an integration of
// its own Sources() under cfg on an Integrator without a warm cache: the
// from-scratch reference every session state must match.
func assertMatchesCold(t *testing.T, s *Session, cfg Config) {
	t.Helper()
	got, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	cfg.disableWarmCache = true
	cold, err := NewIntegrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := cold.Integrate(s.Sources())
	if err != nil {
		t.Fatal(err)
	}
	if g, w := renderFull(got), renderFull(want); g != w {
		t.Fatalf("session result diverges from scratch:\n--- session\n%s--- scratch\n%s", g, w)
	}
}

// TestSessionMirrorsScratch walks a session through adds, an update and a
// remove, pinning every state against a cold from-scratch integration,
// the hash bookkeeping, the per-op statistics and the warm-cache reuse.
func TestSessionMirrorsScratch(t *testing.T) {
	for _, matcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("matcher=%v", matcher), func(t *testing.T) {
			cfg := Config{UseMatcher: matcher}
			ig, err := NewIntegrator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srcs := sessionPool(t, 3, 4)
			s := ig.NewSession()
			ctx := context.Background()

			if _, err := s.Result(); !errors.Is(err, ErrSessionEmpty) {
				t.Fatalf("empty session Result = %v, want ErrSessionEmpty", err)
			}
			if s.Len() != 0 || len(s.SourceHashes()) != 0 || len(s.Sources()) != 0 {
				t.Fatal("empty session reports sources")
			}

			var hashes []string
			for i, src := range srcs[:3] {
				h, err := s.AddSource(ctx, src)
				if err != nil {
					t.Fatal(err)
				}
				if h != src.CanonicalHash() {
					t.Fatalf("AddSource hash %q != canonical %q", h, src.CanonicalHash())
				}
				hashes = append(hashes, h)
				if s.Len() != i+1 {
					t.Fatalf("Len = %d after %d adds", s.Len(), i+1)
				}
				assertMatchesCold(t, s, cfg)
				st := s.Stats()
				if st.Op != "add" || st.Sources != i+1 || st.Components == 0 {
					t.Fatalf("add stats: %+v", st)
				}
			}
			// The Result is built once per operation and shared.
			r1, _ := s.Result()
			if r2, _ := s.Result(); r1 != r2 {
				t.Fatal("Result rebuilt between operations")
			}

			// Hashes come back in hash order, matching Sources order.
			hs := s.SourceHashes()
			for i, src := range s.Sources() {
				if src.CanonicalHash() != hs[i] {
					t.Fatalf("Sources()[%d] hash %q != SourceHashes()[%d] %q",
						i, src.CanonicalHash(), i, hs[i])
				}
				if i > 0 && hs[i-1] > hs[i] {
					t.Fatalf("hashes not sorted: %q > %q", hs[i-1], hs[i])
				}
			}

			newHash, err := s.UpdateSource(ctx, hashes[1], srcs[3])
			if err != nil {
				t.Fatal(err)
			}
			if newHash != srcs[3].CanonicalHash() {
				t.Fatalf("UpdateSource returned %q", newHash)
			}
			if s.Len() != 3 {
				t.Fatalf("Len = %d after update", s.Len())
			}
			assertMatchesCold(t, s, cfg)
			if st := s.Stats(); st.Op != "update" {
				t.Fatalf("update stats: %+v", st)
			}

			if err := s.RemoveSource(ctx, newHash); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d after remove", s.Len())
			}
			assertMatchesCold(t, s, cfg)
			if st := s.Stats(); st.Op != "remove" {
				t.Fatalf("remove stats: %+v", st)
			}

			tot := s.Totals()
			if tot.Ops != 5 || tot.Adds != 3 || tot.Updates != 1 || tot.Removes != 1 {
				t.Fatalf("totals: %+v", tot)
			}
			if st := ig.WarmStats(); st.VerdictHits == 0 {
				t.Fatalf("session never hit the warm verdict cache: %+v", st)
			}
		})
	}
}

// TestSessionDuplicateMirrorsScratch: adding the same tree twice is
// attempted exactly as listing it twice to a from-scratch run would be —
// here the pipeline rejects it (one interface supplying a cluster twice),
// and the failed add rolls back without disturbing the session.
func TestSessionDuplicateMirrorsScratch(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	src := sessionPool(t, 9, 1)[0]

	h, err := s.AddSource(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(ctx, src); err == nil {
		t.Fatal("duplicate interface integrated")
	}
	if _, err := Integrate([]*Tree{src, src}); err == nil {
		t.Fatal("session rejected the duplicate but a from-scratch run accepts it")
	}
	if s.Len() != 1 || s.Totals().Ops != 1 {
		t.Fatalf("failed duplicate add mutated the session: Len=%d totals=%+v", s.Len(), s.Totals())
	}
	if after, _ := s.Result(); after != before {
		t.Fatal("failed add replaced the result")
	}

	// Removing the only source empties the session but keeps it usable.
	if err := s.RemoveSource(ctx, h); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing the only source", s.Len())
	}
	if _, err := s.Result(); !errors.Is(err, ErrSessionEmpty) {
		t.Fatalf("drained session Result = %v", err)
	}
	if st := s.Stats(); st.Op != "remove" || st.Sources != 0 || st.Components != 0 {
		t.Fatalf("drain stats: %+v", st)
	}
	if _, err := s.AddSource(ctx, src); err != nil {
		t.Fatal(err)
	}
	assertMatchesCold(t, s, Config{})
}

func TestSessionErrors(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := s.AddSource(ctx, nil); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := s.AddSource(ctx, &Tree{}); err == nil {
		t.Error("invalid tree accepted")
	}
	if err := s.RemoveSource(ctx, "absent"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("RemoveSource(absent) = %v, want ErrUnknownSource", err)
	}
	src := sessionPool(t, 11, 1)[0]
	if _, err := s.UpdateSource(ctx, "absent", src); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("UpdateSource(absent) = %v, want ErrUnknownSource", err)
	}
	if _, err := s.UpdateSource(ctx, "absent", nil); err == nil {
		t.Error("UpdateSource(nil) accepted")
	}
	if _, err := s.UpdateSource(ctx, "absent", &Tree{}); err == nil {
		t.Error("UpdateSource(invalid) accepted")
	}
	if s.Len() != 0 || s.Totals().Ops != 0 {
		t.Fatalf("failed operations mutated the session: Len=%d totals=%+v", s.Len(), s.Totals())
	}
}

// TestSessionCanceledOpRollsBack: a canceled operation commits nothing —
// the source set, result and statistics stay at the previous state.
func TestSessionCanceledOpRollsBack(t *testing.T) {
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	srcs := sessionPool(t, 13, 3)
	ctx := context.Background()
	h0, err := s.AddSource(ctx, srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(ctx, srcs[1]); err != nil {
		t.Fatal(err)
	}
	before, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.AddSource(canceled, srcs[2]); err == nil {
		t.Fatal("canceled AddSource succeeded")
	}
	if err := s.RemoveSource(canceled, h0); err == nil {
		t.Fatal("canceled RemoveSource succeeded")
	}
	if _, err := s.UpdateSource(canceled, h0, srcs[2]); err == nil {
		t.Fatal("canceled UpdateSource succeeded")
	}

	if s.Len() != 2 || s.Totals().Ops != 2 {
		t.Fatalf("canceled ops mutated the session: Len=%d totals=%+v", s.Len(), s.Totals())
	}
	after, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("canceled op replaced the result")
	}
	// A nil context is tolerated (background).
	if _, err := s.AddSource(nil, srcs[2]); err != nil { //lint:ignore SA1012 deliberate
		t.Fatal(err)
	}
}

// TestSessionReferenceKernels: the test-only reference configuration,
// which the Integrator builds without a warm cache, runs every delta from
// scratch (its exhaustive matcher evaluates pairs on every multi-source
// run) and still reaches the same states.
func TestSessionReferenceKernels(t *testing.T) {
	cfg := Config{UseMatcher: true, referenceKernels: true}
	ig, err := NewIntegrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := ig.NewSession()
	ctx := context.Background()
	for _, src := range sessionPool(t, 17, 3) {
		if _, err := s.AddSource(ctx, src); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); s.Len() > 1 && st.PairsEvaluated == 0 {
			t.Fatalf("reference session evaluated no pair: %+v", st)
		}
	}
	assertMatchesCold(t, s, cfg)
}

// TestPipelineErrors: an empty source set and a set without any cluster
// fail, through IntegrateContext and through a session alike.
func TestPipelineErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := IntegrateContext(ctx, nil); err == nil {
		t.Error("integrated no sources")
	}
	// Strip every annotation: without the matcher there is nothing to
	// cluster.
	trees := sessionPool(t, 19, 2)
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			leaf.Cluster = ""
			leaf.MultiClusters = nil
		}
	}
	if _, err := IntegrateContext(ctx, trees); !errors.Is(err, errNoClusters) {
		t.Errorf("IntegrateContext(unannotated) = %v, want errNoClusters", err)
	}
	s, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(ctx, trees[0]); !errors.Is(err, errNoClusters) {
		t.Errorf("AddSource(unannotated) = %v, want errNoClusters", err)
	}
}

// stageUnits renders observer events as stage:units, failing on a
// negative duration.
func stageUnits(t *testing.T, events []StageEvent) []string {
	t.Helper()
	out := make([]string, len(events))
	for i, e := range events {
		if e.Duration < 0 {
			t.Fatalf("stage %q reports a negative duration", e.Stage)
		}
		out[i] = fmt.Sprintf("%s:%d", e.Stage, e.Units)
	}
	return out
}

// TestSessionStageEvents pins the stage-event contract: every session
// operation that leaves the session non-empty reports the (stage, units)
// sequence IntegrateContext reports over the operation's resulting
// Sources(), with the matcher and without; an operation that empties the
// session reports nothing.
func TestSessionStageEvents(t *testing.T) {
	for _, matcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("matcher=%v", matcher), func(t *testing.T) {
			var got, want []StageEvent
			ig, err := NewIntegrator(Config{UseMatcher: matcher,
				Observer: func(e StageEvent) { got = append(got, e) }})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewIntegrator(Config{UseMatcher: matcher,
				Observer: func(e StageEvent) { want = append(want, e) }})
			if err != nil {
				t.Fatal(err)
			}
			s := ig.NewSession()
			ctx := context.Background()
			srcs := sessionPool(t, 23, 4)
			hashes := make([]string, 3)

			ops := []struct {
				name string
				run  func() error
			}{
				{"add0", func() (err error) { hashes[0], err = s.AddSource(ctx, srcs[0]); return }},
				{"add1", func() (err error) { hashes[1], err = s.AddSource(ctx, srcs[1]); return }},
				{"add2", func() (err error) { hashes[2], err = s.AddSource(ctx, srcs[2]); return }},
				{"update", func() (err error) { hashes[1], err = s.UpdateSource(ctx, hashes[1], srcs[3]); return }},
				{"remove", func() error { return s.RemoveSource(ctx, hashes[2]) }},
				{"remove-to-one", func() error { return s.RemoveSource(ctx, hashes[1]) }},
			}
			for _, op := range ops {
				got, want = got[:0], want[:0]
				if err := op.run(); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if _, err := ref.IntegrateContext(ctx, s.Sources()); err != nil {
					t.Fatal(err)
				}
				g, w := stageUnits(t, got), stageUnits(t, want)
				if len(w) < 3 || w[0] != fmt.Sprintf("validate:%d", s.Len()) {
					t.Fatalf("%s: IntegrateContext reported %v", op.name, w)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: session reported %v, IntegrateContext %v", op.name, g, w)
				}
			}

			got = got[:0]
			if err := s.RemoveSource(ctx, hashes[0]); err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 {
				t.Fatalf("emptying the session reported %v", got)
			}
		})
	}
}

func TestCanonicalizeSourceOrder(t *testing.T) {
	trees := sessionPool(t, 29, 5)
	// Reverse, canonicalize, and require sorted-by-hash order.
	for i, j := 0, len(trees)-1; i < j; i, j = i+1, j-1 {
		trees[i], trees[j] = trees[j], trees[i]
	}
	canonicalizeSourceOrder(trees, nil)
	for i := 1; i < len(trees); i++ {
		if trees[i-1].CanonicalHash() > trees[i].CanonicalHash() {
			t.Fatalf("trees[%d] out of order", i)
		}
	}
}

// TestPruneRareClusters: MinFrequency drops clusters below the floor
// (cluster.Table.Prune), clears their leaves' annotations and renumbers
// the kept clusters' leaves; a floor nothing falls under returns the
// mapping unchanged. A MinFrequency session mirrors from-scratch
// semantics exactly — a single-source state prunes everything and the add
// fails with errNoClusters.
func TestPruneRareClusters(t *testing.T) {
	trees := sessionPool(t, 31, 3)
	cluster.ExpandOneToMany(trees)
	tab := cluster.NewTable(trees)
	m, err := tab.DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Prune(1); got != m {
		t.Fatal("no-drop prune rebuilt the mapping")
	}
	rare := 0
	for _, c := range m.Clusters {
		if c.Frequency() < 2 {
			rare++
		}
	}
	if rare == 0 {
		t.Fatal("corpus has no rare clusters; pick another seed")
	}
	pruned := tab.Prune(2)
	if len(pruned.Clusters) != len(m.Clusters)-rare || tab.Mapping != pruned {
		t.Fatalf("pruned to %d clusters, want %d", len(pruned.Clusters), len(m.Clusters)-rare)
	}
	kept := make(map[string]int32, len(pruned.Clusters))
	for i, c := range pruned.Clusters {
		if c.Frequency() < 2 {
			t.Fatalf("cluster %s survived with frequency %d", c.Name, c.Frequency())
		}
		kept[c.Name] = int32(i)
	}
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			if _, ok := kept[leaf.Cluster]; leaf.Cluster != "" && !ok {
				t.Fatalf("leaf %q still annotated with pruned cluster %q", leaf.Label, leaf.Cluster)
			}
		}
	}
	// Every leaf's cluster ID is its kept cluster's new index, or -1.
	for _, l := range tab.Leaves {
		if id, ok := kept[l.Node.Cluster]; ok && l.Cluster != id || !ok && l.Cluster != -1 {
			t.Fatalf("leaf %q numbered %d after the prune", l.Node.Label, l.Cluster)
		}
	}

	s, err := NewSession(WithMinFrequency(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(context.Background(), sessionPool(t, 31, 1)[0]); !errors.Is(err, errNoClusters) {
		t.Fatalf("1-source MinFrequency=2 add = %v, want errNoClusters", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed add left Len=%d", s.Len())
	}
}
