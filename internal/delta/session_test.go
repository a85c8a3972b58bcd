package delta

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/lexicon"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// pool generates a deterministic source pool for session tests. Dropout
// keeps per-source concept coverage partial so deltas leave untouched
// clusters behind to reuse.
func pool(t *testing.T, seed uint64, sources int) []*schema.Tree {
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

// testConfig attaches a warm cache the way the Integrator does.
func testConfig(matcher bool) Config {
	lex := lexicon.Default()
	return Config{Lexicon: lex, UseMatcher: matcher, Warm: naming.NewWarm(lex)}
}

// renderOutcome serializes the observables equivalence cares about at
// this layer: the labeled tree, the classification, and the cluster
// partition by content signature.
func renderOutcome(out *Outcome) string {
	var b strings.Builder
	var walk func(n *schema.Node, depth int)
	walk = func(n *schema.Node, depth int) {
		fmt.Fprintf(&b, "%s%q %q %v\n", strings.Repeat(" ", depth), n.Label, n.Cluster, n.Instances)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(out.Naming.Tree.Root, 0)
	fmt.Fprintf(&b, "class=%v\n", out.Naming.Class)
	sigs := make([]string, 0, len(out.Mapping.Clusters))
	for _, c := range out.Mapping.Clusters {
		sigs = append(sigs, naming.ClusterSignature(c))
	}
	fmt.Fprintf(&b, "clusters=%d %q\n", len(sigs), sigs)
	return b.String()
}

// fromScratch runs the shared pipeline with no caches over clones of the
// given sources — the reference every session state must match.
func fromScratch(t *testing.T, cfg Config, sources []*schema.Tree) *Outcome {
	t.Helper()
	working := make([]*schema.Tree, len(sources))
	for i, src := range sources {
		working[i] = src.Clone()
	}
	cold := Config{Lexicon: cfg.Lexicon, UseMatcher: cfg.UseMatcher, ReferenceKernels: cfg.ReferenceKernels}
	out, err := Run(context.Background(), working, cold, nil)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// assertMatchesScratch pins the session's outcome against a from-scratch
// run over its own Sources().
func assertMatchesScratch(t *testing.T, s *Session, cfg Config) {
	t.Helper()
	out, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	want := renderOutcome(fromScratch(t, cfg, s.Sources()))
	if got := renderOutcome(out); got != want {
		t.Fatalf("session outcome diverges from scratch:\n--- session\n%s--- scratch\n%s", got, want)
	}
}

func TestSessionLifecycle(t *testing.T) {
	for _, matcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("matcher=%v", matcher), func(t *testing.T) {
			cfg := testConfig(matcher)
			srcs := pool(t, 3, 4)
			s := NewSession(cfg)
			ctx := context.Background()

			if _, err := s.Outcome(); !errors.Is(err, ErrEmptySession) {
				t.Fatalf("empty session Outcome = %v, want ErrEmptySession", err)
			}
			if s.Len() != 0 || len(s.Hashes()) != 0 || len(s.Sources()) != 0 {
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
				assertMatchesScratch(t, s, cfg)
				st := s.LastStats()
				if st.Op != "add" || st.Sources != i+1 || st.Components == 0 {
					t.Fatalf("add stats: %+v", st)
				}
			}

			// Hashes come back in hash order, matching Sources order.
			hs := s.Hashes()
			for i, src := range s.Sources() {
				if src.CanonicalHash() != hs[i] {
					t.Fatalf("Sources()[%d] hash %q != Hashes()[%d] %q",
						i, src.CanonicalHash(), i, hs[i])
				}
				if i > 0 && hs[i-1] > hs[i] {
					t.Fatalf("Hashes not sorted: %q > %q", hs[i-1], hs[i])
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
			assertMatchesScratch(t, s, cfg)
			if st := s.LastStats(); st.Op != "update" {
				t.Fatalf("update stats: %+v", st)
			}

			if err := s.RemoveSource(ctx, newHash); err != nil {
				t.Fatal(err)
			}
			if s.Len() != 2 {
				t.Fatalf("Len = %d after remove", s.Len())
			}
			assertMatchesScratch(t, s, cfg)
			if st := s.LastStats(); st.Op != "remove" {
				t.Fatalf("remove stats: %+v", st)
			}

			tot := s.TotalStats()
			if tot.Ops != 5 || tot.Adds != 3 || tot.Updates != 1 || tot.Removes != 1 {
				t.Fatalf("totals: %+v", tot)
			}
			if tot.ComponentsReused == 0 {
				t.Fatalf("no component reuse across the lifecycle: %+v", tot)
			}
			if st := cfg.Warm.Stats(); st.VerdictHits == 0 {
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
	cfg := testConfig(false)
	s := NewSession(cfg)
	ctx := context.Background()
	src := pool(t, 9, 1)[0]

	h, err := s.AddSource(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(ctx, src); err == nil {
		t.Fatal("duplicate interface integrated")
	}
	if _, err := Run(ctx, []*schema.Tree{src.Clone(), src.Clone()}, cfg, nil); err == nil {
		t.Fatal("session rejected the duplicate but a from-scratch run accepts it")
	}
	if s.Len() != 1 || s.TotalStats().Ops != 1 {
		t.Fatalf("failed duplicate add mutated the session: Len=%d totals=%+v",
			s.Len(), s.TotalStats())
	}
	if after, _ := s.Outcome(); after != before {
		t.Fatal("failed add replaced the outcome")
	}

	// Removing the only source empties the session but keeps it usable.
	if err := s.RemoveSource(ctx, h); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing the only source", s.Len())
	}
	if _, err := s.Outcome(); !errors.Is(err, ErrEmptySession) {
		t.Fatalf("drained session Outcome = %v", err)
	}
	if st := s.LastStats(); st.Op != "remove" || st.Sources != 0 || st.Components != 0 {
		t.Fatalf("drain stats: %+v", st)
	}
	if _, err := s.AddSource(ctx, src); err != nil {
		t.Fatal(err)
	}
	assertMatchesScratch(t, s, cfg)
}

func TestSessionErrors(t *testing.T) {
	cfg := testConfig(false)
	s := NewSession(cfg)
	ctx := context.Background()

	if _, err := s.AddSource(ctx, nil); err == nil {
		t.Error("nil tree accepted")
	}
	if _, err := s.AddSource(ctx, &schema.Tree{}); err == nil {
		t.Error("invalid tree accepted")
	}
	if err := s.RemoveSource(ctx, "absent"); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("RemoveSource(absent) = %v, want ErrUnknownSource", err)
	}
	src := pool(t, 11, 1)[0]
	if _, err := s.UpdateSource(ctx, "absent", src); !errors.Is(err, ErrUnknownSource) {
		t.Errorf("UpdateSource(absent) = %v, want ErrUnknownSource", err)
	}
	if _, err := s.UpdateSource(ctx, "absent", nil); err == nil {
		t.Error("UpdateSource(nil) accepted")
	}
	if _, err := s.UpdateSource(ctx, "absent", &schema.Tree{}); err == nil {
		t.Error("UpdateSource(invalid) accepted")
	}
	if s.Len() != 0 || s.TotalStats().Ops != 0 {
		t.Fatalf("failed operations mutated the session: Len=%d totals=%+v",
			s.Len(), s.TotalStats())
	}
}

// TestSessionCanceledOpRollsBack: a canceled recompute commits nothing —
// the entry set, outcome and statistics stay at the previous state.
func TestSessionCanceledOpRollsBack(t *testing.T) {
	cfg := testConfig(false)
	s := NewSession(cfg)
	srcs := pool(t, 13, 3)
	ctx := context.Background()
	h0, err := s.AddSource(ctx, srcs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddSource(ctx, srcs[1]); err != nil {
		t.Fatal(err)
	}
	before, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}

	// A canceled operation whose result set is non-empty must run the
	// pipeline, fail on the context, and commit nothing.
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

	if s.Len() != 2 || s.TotalStats().Ops != 2 {
		t.Fatalf("canceled ops mutated the session: Len=%d totals=%+v",
			s.Len(), s.TotalStats())
	}
	after, err := s.Outcome()
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("canceled op replaced the outcome")
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
	cfg := Config{Lexicon: lexicon.Default(), UseMatcher: true, ReferenceKernels: true}
	s := NewSession(cfg)
	ctx := context.Background()
	for _, src := range pool(t, 17, 3) {
		if _, err := s.AddSource(ctx, src); err != nil {
			t.Fatal(err)
		}
		if st := s.LastStats(); s.Len() > 1 && st.PairsEvaluated == 0 {
			t.Fatalf("reference session evaluated no pair: %+v", st)
		}
	}
	assertMatchesScratch(t, s, cfg)
}

func TestRunErrors(t *testing.T) {
	cfg := testConfig(false)
	if _, err := Run(context.Background(), nil, cfg, nil); !errors.Is(err, ErrNoSources) {
		t.Errorf("Run(no trees) = %v, want ErrNoSources", err)
	}
	// Strip every annotation: without the matcher there is nothing to
	// cluster.
	trees := pool(t, 19, 2)
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			leaf.Cluster = ""
			leaf.MultiClusters = nil
		}
	}
	if _, err := Run(context.Background(), trees, cfg, nil); !errors.Is(err, ErrNoClusters) {
		t.Errorf("Run(unannotated) = %v, want ErrNoClusters", err)
	}
}

// TestRunObserve: the observe hook fires once per completed stage with a
// nonzero unit count.
func TestRunObserve(t *testing.T) {
	trees := pool(t, 23, 3)
	stages := map[string]int{}
	_, err := Run(context.Background(), trees, testConfig(true),
		func(stage string, units int) { stages[stage] = units })
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"match", "merge", "naming"} {
		if stages[stage] == 0 {
			t.Errorf("stage %q not observed (got %v)", stage, stages)
		}
	}
}

func TestCanonicalizeSourceOrder(t *testing.T) {
	trees := pool(t, 29, 5)
	// Reverse, canonicalize, and require sorted-by-hash order.
	for i, j := 0, len(trees)-1; i < j; i, j = i+1, j-1 {
		trees[i], trees[j] = trees[j], trees[i]
	}
	CanonicalizeSourceOrder(trees)
	for i := 1; i < len(trees); i++ {
		if trees[i-1].CanonicalHash() > trees[i].CanonicalHash() {
			t.Fatalf("trees[%d] out of order", i)
		}
	}
}

// TestPruneRareClusters: MinFrequency drops clusters below the floor and
// clears their leaves' annotations; a floor nothing falls under returns
// the mapping unchanged. A MinFrequency session mirrors from-scratch
// semantics exactly — a single-source state prunes everything and the add
// fails with ErrNoClusters, so the session only becomes viable once built
// from a multi-source pipeline state.
func TestPruneRareClusters(t *testing.T) {
	trees := pool(t, 31, 3)
	cluster.ExpandOneToMany(trees)
	m, err := cluster.FromTrees(trees)
	if err != nil {
		t.Fatal(err)
	}
	if got := PruneRareClusters(trees, m, 1); got != m {
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
	pruned := PruneRareClusters(trees, m, 2)
	if len(pruned.Clusters) != len(m.Clusters)-rare {
		t.Fatalf("pruned to %d clusters, want %d", len(pruned.Clusters), len(m.Clusters)-rare)
	}
	for _, c := range pruned.Clusters {
		if c.Frequency() < 2 {
			t.Fatalf("cluster %s survived with frequency %d", c.Name, c.Frequency())
		}
	}
	kept := make(map[string]bool, len(pruned.Clusters))
	for _, c := range pruned.Clusters {
		kept[c.Name] = true
	}
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			if leaf.Cluster != "" && !kept[leaf.Cluster] {
				t.Fatalf("leaf %q still annotated with pruned cluster %q", leaf.Label, leaf.Cluster)
			}
		}
	}

	// The session path: a 1-source state under MinFrequency 2 prunes every
	// cluster, so the add fails exactly as a from-scratch run would.
	cfg := testConfig(false)
	cfg.MinFrequency = 2
	s := NewSession(cfg)
	if _, err := s.AddSource(context.Background(), pool(t, 31, 1)[0]); !errors.Is(err, ErrNoClusters) {
		t.Fatalf("1-source MinFrequency=2 add = %v, want ErrNoClusters", err)
	}
	if s.Len() != 0 {
		t.Fatalf("failed add left Len=%d", s.Len())
	}
}
