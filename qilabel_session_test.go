package qilabel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"qilabel/internal/synth"
)

// The delta equivalence gate: after ANY sequence of session operations,
// the session's Result must be byte-identical to a from-scratch
// IntegrateContext over the same final source set — the correctness spine
// of incremental integration. renderFull covers everything a client can
// observe (class, labels, tree, summary, the full Explain provenance and
// the inference-rule counters), so a reused group solution that diverged
// in any visible way fails loudly.

// renderFull extends renderResult with the provenance report and the
// rule counters — the deepest observable surface of a Result.
func renderFull(res *Result) string {
	return renderResult(res) + res.Explain() + fmt.Sprintf("%v\n", res.Naming.Counters.LI)
}

// assertSessionEquals compares the session against a from-scratch
// integration of the given source listing under the same options.
func assertSessionEquals(t *testing.T, sess *Session, current []*Tree, opts []Option) {
	t.Helper()
	want, err := Integrate(current, opts...)
	if err != nil {
		t.Fatalf("from-scratch integrate: %v", err)
	}
	got, err := sess.Result()
	if err != nil {
		t.Fatalf("session result: %v", err)
	}
	if g, w := renderFull(got), renderFull(want); g != w {
		t.Fatalf("session result diverges from from-scratch integration\n--- session\n%s\n--- scratch\n%s", g, w)
	}
	if k, w := sess.CacheKey(), CacheKey(current, opts...); k != w {
		t.Fatalf("session cache key %s != from-scratch key %s", k, w)
	}
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	if fp, w := sess.Fingerprint(), cfg.Fingerprint(); fp != w {
		t.Fatalf("session fingerprint %s != config fingerprint %s", fp, w)
	}
	srcs := sess.Sources()
	if len(srcs) != len(current) {
		t.Fatalf("Sources() returned %d trees, session holds %d", len(srcs), len(current))
	}
	for i, src := range srcs {
		if i > 0 && srcs[i-1].CanonicalHash() > src.CanonicalHash() {
			t.Fatalf("Sources() not in canonical order at %d", i)
		}
	}
}

// sessionParallelism sweeps serial, default and wide parallelism across
// the suite (CI additionally runs the whole test at -cpu=1,4).
func sessionParallelism(i int) int {
	return []int{1, 0, 4}[i%3]
}

func TestDeltaEquivalenceSynth(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < invariantSets; i++ {
		i := i
		t.Run(fmt.Sprintf("set%03d", i), func(t *testing.T) {
			t.Parallel()
			cfg, matcher := invariantConfig(i)
			sources, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithParallelism(sessionParallelism(i))}
			if matcher {
				opts = append(opts, WithMatcher())
			}
			sess, err := NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}

			// Adds: grow the session one source at a time, checking the
			// gate at every prefix.
			var current []*Tree
			var hashes []string
			for _, src := range sources {
				h, err := sess.AddSource(ctx, src)
				if err != nil {
					t.Fatalf("AddSource: %v", err)
				}
				current = append(current, src)
				hashes = append(hashes, h)
				assertSessionEquals(t, sess, current, opts)
			}

			// Update: swap source 0 for a synonym-relabeled variant.
			relabeled, swapped, err := synth.SynonymRelabel(cfg, sources, cfg.Seed^0x5eed)
			if err != nil {
				t.Fatalf("relabel: %v", err)
			}
			if swapped > 0 {
				h, err := sess.UpdateSource(ctx, hashes[0], relabeled[0])
				if err != nil {
					t.Fatalf("UpdateSource: %v", err)
				}
				hashes[0] = h
				current[0] = relabeled[0]
				assertSessionEquals(t, sess, current, opts)
			}

			// Remove: drop the last source.
			if len(hashes) > 1 {
				if err := sess.RemoveSource(ctx, hashes[len(hashes)-1]); err != nil {
					t.Fatalf("RemoveSource: %v", err)
				}
				current = current[:len(current)-1]
				hashes = hashes[:len(hashes)-1]
				assertSessionEquals(t, sess, current, opts)
			}
		})
	}
}

// TestDeltaEquivalenceGolden grows a session over each builtin domain's
// full source pool, checks the gate at every prefix, and requires the
// final state to reproduce the committed golden corpus file byte for
// byte — the same bytes TestGoldenCorpus pins for the one-shot pipeline.
func TestDeltaEquivalenceGolden(t *testing.T) {
	ctx := context.Background()
	for di, domain := range BuiltinDomains() {
		di, domain := di, domain
		t.Run(domain, func(t *testing.T) {
			t.Parallel()
			sources, err := BuiltinDomain(domain)
			if err != nil {
				t.Fatal(err)
			}
			opts := []Option{WithParallelism(sessionParallelism(di))}
			sess, err := NewSession(opts...)
			if err != nil {
				t.Fatal(err)
			}
			var current []*Tree
			for _, src := range sources {
				if _, err := sess.AddSource(ctx, src); err != nil {
					t.Fatalf("AddSource: %v", err)
				}
				current = append(current, src)
				assertSessionEquals(t, sess, current, opts)
			}

			res, err := sess.Result()
			if err != nil {
				t.Fatal(err)
			}
			data, err := json.MarshalIndent(goldenFile{
				Domain:  domain,
				Key:     sess.CacheKey(),
				Class:   res.Class.String(),
				Labels:  res.Labels,
				Tree:    res.Tree.String(),
				Summary: res.Summary(),
			}, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, '\n')
			want, err := os.ReadFile(goldenPath(domain))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			if !bytes.Equal(data, want) {
				t.Errorf("session-built %s diverges from golden corpus\ngot:\n%s\nwant:\n%s", domain, data, want)
			}
		})
	}
}

// TestSessionReuse pins that deltas actually reuse work: adding one source
// to a warm medium-sized session answers Relate verdicts from the
// Integrator's warm cache, and removing it again analyzes no label and
// evaluates no verdict afresh — the observable claim behind
// BenchmarkDeltaAddSource.
func TestSessionReuse(t *testing.T) {
	ctx := context.Background()
	for _, matcher := range []bool{false, true} {
		name := "annotated"
		if matcher {
			name = "matcher"
		}
		t.Run(name, func(t *testing.T) {
			// Dropout matters: each source covers a subset of the domain's
			// concepts (as real source pools do), so a new source brings
			// new labels next to ones the warm cache already holds.
			cfg := synth.Config{
				Seed: 7, Sources: 10, Concepts: 24, GroupFanout: 2, Depth: 2,
				Domain:  "reuse",
				Perturb: synth.Perturb{SynonymSwap: 0.4, NumberVary: 0.3, Reorder: 0.4, Dropout: 0.5},
			}
			sources, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ig, err := NewIntegrator(Config{UseMatcher: matcher})
			if err != nil {
				t.Fatal(err)
			}
			sess := ig.NewSession()
			for _, src := range sources[:len(sources)-1] {
				if _, err := sess.AddSource(ctx, src); err != nil {
					t.Fatal(err)
				}
			}
			last := sources[len(sources)-1]
			before := ig.WarmStats()
			h, err := sess.AddSource(ctx, last)
			if err != nil {
				t.Fatal(err)
			}
			if st := sess.Stats(); st.Components == 0 {
				t.Fatal("no components after add")
			}
			if after := ig.WarmStats(); after.VerdictHits == before.VerdictHits {
				t.Errorf("single-source add answered no Relate verdict from the warm cache: %+v", after)
			}

			// Remove the source again: back to the previous state, with
			// every label and Relate verdict answered from the warm cache.
			before = ig.WarmStats()
			if err := sess.RemoveSource(ctx, h); err != nil {
				t.Fatal(err)
			}
			if after := ig.WarmStats(); after.LabelMisses != before.LabelMisses || after.VerdictMisses != before.VerdictMisses {
				t.Errorf("remove back to a seen state analyzed labels or evaluated verdicts afresh:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}

// TestSessionLifecycle covers the bookkeeping edges: duplicate stacking,
// unknown hashes, empty sessions, rollback on canceled operations.
func TestSessionLifecycle(t *testing.T) {
	ctx := context.Background()
	sources, err := synth.Generate(synth.Config{Seed: 3, Sources: 3, Concepts: 6, GroupFanout: 3, Depth: 2, Domain: "life"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Result(); err == nil {
		t.Fatal("empty session returned a result")
	}
	if err := sess.RemoveSource(ctx, "nope"); err == nil {
		t.Fatal("removing an unknown hash succeeded")
	}

	h0, err := sess.AddSource(ctx, sources[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := sources[0].CanonicalHash(); h0 != want {
		t.Fatalf("AddSource hash %s != CanonicalHash %s", h0, want)
	}
	if _, err := sess.AddSource(ctx, sources[1]); err != nil {
		t.Fatal(err)
	}
	if sess.Len() != 2 {
		t.Fatalf("Len = %d, want 2", sess.Len())
	}
	baseline := renderResultOf(t, sess)

	// A canceled operation must leave the state untouched.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := sess.AddSource(canceled, sources[2]); err == nil {
		t.Fatal("AddSource under a canceled context succeeded")
	}
	if sess.Len() != 2 {
		t.Fatalf("canceled add changed Len to %d", sess.Len())
	}
	if got := renderResultOf(t, sess); got != baseline {
		t.Fatal("canceled add changed the session result")
	}

	// Add-then-remove of the same tree is a no-op.
	h2, err := sess.AddSource(ctx, sources[2])
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.RemoveSource(ctx, h2); err != nil {
		t.Fatal(err)
	}
	if got := renderResultOf(t, sess); got != baseline {
		t.Fatal("add followed by remove of the same tree changed the result")
	}

	// Updating to an unknown hash fails; updating a present hash works.
	if _, err := sess.UpdateSource(ctx, "nope", sources[2]); err == nil {
		t.Fatal("updating an unknown hash succeeded")
	}
	h1 := sources[1].CanonicalHash()
	nh, err := sess.UpdateSource(ctx, h1, sources[2])
	if err != nil {
		t.Fatal(err)
	}
	if want := sources[2].CanonicalHash(); nh != want {
		t.Fatalf("UpdateSource hash %s != %s", nh, want)
	}
	assertSessionEquals(t, sess, []*Tree{sources[0], sources[2]}, nil)

	// Totals track the operation mix (5 successful ops so far).
	tot := sess.Totals()
	if tot.Adds != 3 || tot.Removes != 1 || tot.Updates != 1 {
		t.Fatalf("totals %+v, want 3 adds / 1 remove / 1 update", tot)
	}

	// Draining the session empties it.
	for _, h := range sess.SourceHashes() {
		if err := sess.RemoveSource(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
	if sess.Len() != 0 {
		t.Fatalf("drained session Len = %d", sess.Len())
	}
	if _, err := sess.Result(); err == nil {
		t.Fatal("drained session returned a result")
	}
}

func renderResultOf(t *testing.T, sess *Session) string {
	t.Helper()
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	return renderFull(res)
}

// TestSessionDuplicateSources pins the multiset semantics: adding the
// same tree twice behaves exactly like listing it twice to Integrate
// (including the error case the annotated pipeline raises for duplicate
// interfaces), and removing one occurrence restores the prior state.
func TestSessionDuplicateSources(t *testing.T) {
	ctx := context.Background()
	sources, err := synth.Generate(synth.Config{Seed: 11, Sources: 3, Concepts: 6, GroupFanout: 3, Depth: 2, Domain: "dup"})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	h, err := sess.AddSource(ctx, sources[0])
	if err != nil {
		t.Fatal(err)
	}
	baseline := renderResultOf(t, sess)

	// From-scratch over a doubled listing errors (one interface supplies
	// two fields per cluster), so the session add must error identically
	// and roll back.
	if _, scratchErr := Integrate([]*Tree{sources[0], sources[0]}); scratchErr != nil {
		if _, err := sess.AddSource(ctx, sources[0]); err == nil {
			t.Fatal("duplicate add succeeded where from-scratch integration errors")
		}
		if got := renderResultOf(t, sess); got != baseline {
			t.Fatal("failed duplicate add changed the session state")
		}
		if sess.Len() != 1 {
			t.Fatalf("failed duplicate add changed Len to %d", sess.Len())
		}
	}
	_ = h
}
