package qilabel

import (
	"fmt"
	"testing"

	"qilabel/internal/synth"
)

// Scale harness: the worker × domain-size matrix behind BENCH_pr7.json.
// The three synth presets (small 8×12, medium 32×32, mega 192×96 with a
// synthesized vocabulary) share one perturbation profile, so the curve
// isolates scale. Every cell reuses one warm Integrator — the redesigned
// entry point the curve is meant to certify — and the serial/parallel
// byte-equivalence of the same corpora is pinned by TestScaleSerialParallel
// below, so the benchmark never trades determinism for speed.

// scaleCorpus generates a preset corpus and the base Config that labels
// it: the (possibly extended) lexicon, with the matcher on — pairwise
// matching is one of the two embarrassingly-parallel stages the scaling
// curve is meant to expose, so every cell pays it.
func scaleCorpus(tb testing.TB, size string) ([]*Tree, Config) {
	tb.Helper()
	cfg, err := synth.Preset(size)
	if err != nil {
		tb.Fatal(err)
	}
	trees, lex, err := synth.GenerateWithLexicon(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return trees, Config{Lexicon: lex, UseMatcher: true}
}

// BenchmarkScale measures warm Integrator throughput across the worker ×
// domain-size matrix. On a single-core machine the workers>1 cells
// document scheduling overhead rather than speedup; run on a multi-core
// machine to see the parallel stages pay.
func BenchmarkScale(b *testing.B) {
	for _, size := range []string{"small", "medium", "mega"} {
		sources, cfg := scaleCorpus(b, size)
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", size, workers), func(b *testing.B) {
				c := cfg
				c.Parallelism = workers
				ig, err := NewIntegrator(c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ig.Integrate(sources); err != nil {
					b.Fatal(err) // warm the caches outside the timer
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ig.Integrate(sources); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkWarm contrasts a cache-cold Integrator (DisableWarmCache: every
// iteration recomputes the full pipeline) with a warm one repeatedly
// integrating the same corpus — the cross-run cache curves behind
// BENCH_pr8.json. Warm output is byte-identical to cold
// (TestWarmEquivalence); only the time differs.
func BenchmarkWarm(b *testing.B) {
	for _, size := range []string{"small", "medium", "mega"} {
		sources, cfg := scaleCorpus(b, size)
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"cold", true}, {"warm", false}} {
			b.Run(size+"/"+mode.name, func(b *testing.B) {
				c := cfg
				c.DisableWarmCache = mode.disable
				ig, err := NewIntegrator(c)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := ig.Integrate(sources); err != nil {
					b.Fatal(err) // prime the caches, if enabled
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := ig.Integrate(sources); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// warmOverlapCorpora builds two medium corpora drawn from one synthesized
// vocabulary (seed-shifted, lexicon pinned), so alternating them exercises
// the content-signature fallback of the warm caches — substantial label
// overlap, but no run is an exact repeat of the previous one.
func warmOverlapCorpora(tb testing.TB) ([]*Tree, []*Tree, Config) {
	tb.Helper()
	cfgA, err := synth.Preset("medium")
	if err != nil {
		tb.Fatal(err)
	}
	treesA, lex, err := synth.GenerateWithLexicon(cfgA)
	if err != nil {
		tb.Fatal(err)
	}
	cfgB := cfgA
	cfgB.Seed += 7
	cfgB.SynthVocab = false
	cfgB.Lexicon = lex
	treesB, _, err := synth.GenerateWithLexicon(cfgB)
	if err != nil {
		tb.Fatal(err)
	}
	return treesA, treesB, Config{Lexicon: lex, UseMatcher: true}
}

// BenchmarkWarmOverlap alternates the two overlapping medium corpora on
// one Integrator: the whole-corpus replay keys hit every other run, and
// the label/verdict/solve caches absorb the shared vocabulary in between.
func BenchmarkWarmOverlap(b *testing.B) {
	treesA, treesB, cfg := warmOverlapCorpora(b)
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"cold", true}, {"warm", false}} {
		b.Run(mode.name, func(b *testing.B) {
			c := cfg
			c.DisableWarmCache = mode.disable
			ig, err := NewIntegrator(c)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range [][]*Tree{treesA, treesB} {
				if _, err := ig.Integrate(s); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := treesA
				if i%2 == 1 {
					s = treesB
				}
				if _, err := ig.Integrate(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestScaleSerialParallel pins byte-identical output between the serial
// and the maximally parallel pipeline on every preset of the scaling
// matrix, including the mega corpus.
func TestScaleSerialParallel(t *testing.T) {
	for _, size := range []string{"small", "medium", "mega"} {
		t.Run(size, func(t *testing.T) {
			if size == "mega" && testing.Short() {
				t.Skip("mega corpus skipped in -short mode")
			}
			sources, cfg := scaleCorpus(t, size)
			serialCfg, parallelCfg := cfg, cfg
			serialCfg.Parallelism = 1
			parallelCfg.Parallelism = 8
			serial, err := NewIntegrator(serialCfg)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := NewIntegrator(parallelCfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := serial.Integrate(sources)
			if err != nil {
				t.Fatal(err)
			}
			got, err := parallel.Integrate(sources)
			if err != nil {
				t.Fatal(err)
			}
			if got.Tree.String() != want.Tree.String() {
				t.Fatal("parallel tree differs from serial tree")
			}
			if got.Naming.Explain() != want.Naming.Explain() {
				t.Fatal("parallel naming explanation differs from serial")
			}
		})
	}
}

// TestIntegrateAllocBudget pins the allocation diet: a warm Integrator
// over the medium preset (32 sources × 32 concepts, matcher on) must stay
// under an explicit allocs-per-run ceiling. The ceiling carries ~40%
// headroom over the measured steady state, so it only trips on a real
// regression (the pre-diet pipeline sat several times higher), not on
// noise. Update the constant deliberately when the pipeline legitimately
// changes shape.
func TestIntegrateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting skipped in -short mode")
	}
	const ceiling = 90_000 // measured steady state: ~64k allocs/run

	sources, cfg := scaleCorpus(t, "medium")
	cfg.Parallelism = 1 // AllocsPerRun pins GOMAXPROCS to 1 anyway
	ig, err := NewIntegrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Integrate(sources); err != nil {
		t.Fatal(err) // warm the scratch pools before counting
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ig.Integrate(sources); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm medium-domain Integrate: %.0f allocs/run (ceiling %d)", allocs, ceiling)
	if allocs > ceiling {
		t.Fatalf("warm medium-domain Integrate allocated %.0f times, ceiling is %d", allocs, ceiling)
	}
}
