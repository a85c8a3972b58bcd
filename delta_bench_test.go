package qilabel

// Delta-integration benchmarks, the performance claim behind sessions: a
// warm session absorbing a single-source change must beat re-running the
// whole pipeline over the final source set on a fresh Integrator. Each
// size is measured both ways over the same synthetic domain — one timed
// AddSource against one from-scratch Integrate of the same final set — so
// the two numbers compare like with like.

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/synth"
)

// deltaBenchConfig shapes the synthetic domains of the delta benches.
// Dropout keeps per-source concept coverage partial, the regime real
// source pools live in and the one where incrementality pays.
func deltaBenchConfig(size string) synth.Config {
	cfg := synth.Config{
		Domain:  "deltabench-" + size,
		Seed:    17,
		Depth:   2,
		Perturb: synth.Perturb{SynonymSwap: 0.4, NumberVary: 0.3, Reorder: 0.4, Dropout: 0.5},
	}
	switch size {
	case "small":
		cfg.Sources, cfg.Concepts, cfg.GroupFanout = 6, 12, 3
	case "medium":
		cfg.Sources, cfg.Concepts, cfg.GroupFanout = 20, 24, 2
	default:
		panic("unknown size " + size)
	}
	return cfg
}

func deltaBenchSizes(b *testing.B, run func(b *testing.B, sources []*Tree, opts []Option)) {
	for _, size := range []string{"small", "medium"} {
		for _, mode := range []string{"annotated", "matcher"} {
			b.Run(size+"/"+mode, func(b *testing.B) {
				sources, err := synth.Generate(deltaBenchConfig(size))
				if err != nil {
					b.Fatal(err)
				}
				var opts []Option
				if mode == "matcher" {
					opts = append(opts, WithMatcher())
				}
				run(b, sources, opts)
			})
		}
	}
}

// BenchmarkDeltaAddSource measures one warm-session AddSource of the
// held-out last source; the RemoveSource that restores the state for the
// next iteration runs outside the timer. The session is warmed over the
// other sources (and one add/remove cycle) before the loop.
func BenchmarkDeltaAddSource(b *testing.B) {
	deltaBenchSizes(b, func(b *testing.B, sources []*Tree, opts []Option) {
		ctx := context.Background()
		sess, err := NewSession(opts...)
		if err != nil {
			b.Fatal(err)
		}
		last := sources[len(sources)-1]
		for _, src := range sources[:len(sources)-1] {
			if _, err := sess.AddSource(ctx, src); err != nil {
				b.Fatal(err)
			}
		}
		// One untimed cycle warms the caches for the held-out source too.
		h, err := sess.AddSource(ctx, last)
		if err != nil {
			b.Fatal(err)
		}
		if err := sess.RemoveSource(ctx, h); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := sess.AddSource(ctx, last)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if err := sess.RemoveSource(ctx, h); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
	})
}

// BenchmarkDeltaFullReintegrate is the baseline the session competes
// against: a from-scratch Integrate over the full final source set, what
// every change cost before sessions existed.
func BenchmarkDeltaFullReintegrate(b *testing.B) {
	deltaBenchSizes(b, func(b *testing.B, sources []*Tree, opts []Option) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Integrate(sources, opts...); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestDeltaBenchDomains pins that both bench domains actually integrate
// and produce a nontrivial cluster count, so the committed BENCH numbers
// cannot silently measure a degenerate corpus.
func TestDeltaBenchDomains(t *testing.T) {
	for _, size := range []string{"small", "medium"} {
		sources, err := synth.Generate(deltaBenchConfig(size))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Integrate(sources)
		if err != nil {
			t.Fatalf("%s: %v", size, err)
		}
		if len(res.Labels) < 8 {
			t.Fatalf("%s: degenerate bench domain (%d labeled clusters)", size, len(res.Labels))
		}
		_ = fmt.Sprintf("%v", res.Class)
	}
}
