package qilabel

// Pipeline-level kernel-equivalence tests: the semantic-kernel
// optimizations (compiled lexicon closures, shared analysis table, Relate
// memoization, blocked matcher) must never change what the pipeline
// computes, only how fast. Each layer is pinned exhaustively in its own
// package; this test pins the composition end to end by running the public
// pipeline against the unoptimized reference kernels.

import (
	"fmt"
	"reflect"
	"testing"

	"qilabel/internal/synth"
)

// TestOptimizedMatchesReference: the optimized pipeline must produce
// byte-identical output to the reference-kernel pipeline — same labels,
// class, tree rendering, naming report and inference-rule tallies (the
// Figure 10 counters) — on every builtin domain with and without the
// matcher, on 50 seeded synthetic corpora with the matcher, at serial and
// fanned-out parallelism, and on the medium and mega scale presets. Mega
// runs on its annotated clusters: the reference matcher's exhaustive
// pairwise pass is quadratic in its ~18k fields.
func TestOptimizedMatchesReference(t *testing.T) {
	for _, domain := range BuiltinDomains() {
		for _, matcher := range []bool{false, true} {
			for _, par := range []int{1, 8} {
				name := domain
				if matcher {
					name += "/matcher"
				}
				if par > 1 {
					name += "/parallel"
				}
				t.Run(name, func(t *testing.T) {
					sources, err := BuiltinDomain(domain)
					if err != nil {
						t.Fatal(err)
					}
					assertMatchesReference(t, sources, Config{UseMatcher: matcher, Parallelism: par})
				})
			}
		}
	}
	t.Run("synth", func(t *testing.T) {
		base := synth.Config{Domain: "kernel-eq", Sources: 6, Concepts: 12,
			GroupFanout: 3, Depth: 3, InstanceRatio: 0.5,
			Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, HypernymLift: 0.2, Dropout: 0.1, Reorder: 0.2}}
		for seed := 0; seed < 50; seed++ {
			cfg := base
			cfg.Seed = uint64(seed)
			sources, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("seed=%d/par=%d", seed, par), func(t *testing.T) {
					assertMatchesReference(t, sources, Config{UseMatcher: true, Parallelism: par})
				})
			}
		}
	})
	for _, preset := range []struct {
		size     string
		matchers []bool
	}{{"medium", []bool{true, false}}, {"mega", []bool{false}}} {
		for _, matcher := range preset.matchers {
			name := preset.size + "/annotated"
			if matcher {
				name = preset.size + "/matcher"
			}
			t.Run(name, func(t *testing.T) {
				if preset.size == "mega" && testing.Short() {
					t.Skip("mega corpus skipped in -short mode")
				}
				sources, cfg := scaleCorpus(t, preset.size)
				cfg.UseMatcher = matcher
				assertMatchesReference(t, sources, cfg)
			})
		}
	}
}

// assertMatchesReference integrates sources under cfg through the
// optimized and the reference kernels and fails on any output difference.
func assertMatchesReference(t *testing.T, sources []*Tree, cfg Config) {
	t.Helper()
	ref := cfg
	ref.referenceKernels = true
	optimized, err := Integrate(sources, WithConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	reference, err := Integrate(sources, WithConfig(ref))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(optimized.Labels, reference.Labels) {
		t.Errorf("labels diverge:\noptimized: %v\nreference: %v",
			optimized.Labels, reference.Labels)
	}
	if optimized.Class != reference.Class {
		t.Errorf("class diverges: optimized %s, reference %s",
			optimized.Class, reference.Class)
	}
	if optimized.Tree.String() != reference.Tree.String() {
		t.Errorf("tree rendering diverges:\noptimized:\n%s\nreference:\n%s",
			optimized.Tree, reference.Tree)
	}
	if !reflect.DeepEqual(optimized.Naming.Groups, reference.Naming.Groups) {
		t.Errorf("group solutions diverge")
	}
	if !reflect.DeepEqual(optimized.Naming.Nodes, reference.Naming.Nodes) {
		t.Errorf("internal-node labels diverge")
	}
	if optimized.Naming.Counters != reference.Naming.Counters {
		t.Errorf("inference-rule tallies diverge: optimized %v, reference %v",
			optimized.Naming.Counters.LI, reference.Naming.Counters.LI)
	}
}

// TestReferenceKernelsExcludedFromFingerprint: the reference switch cannot
// change the output, so it must not change the fingerprint either.
func TestReferenceKernelsExcludedFromFingerprint(t *testing.T) {
	a := Config{UseMatcher: true}
	b := a
	b.referenceKernels = true
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatalf("fingerprint depends on referenceKernels: %q vs %q",
			a.Fingerprint(), b.Fingerprint())
	}
}
