package qilabel

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/naming"
	"qilabel/internal/synth"
)

// Scale harness: the three synth presets (small 8×12, medium 32×32, mega
// 192×96 with a synthesized vocabulary) share one perturbation profile, so
// they isolate scale. BenchmarkWarm times a cold and a warm Integrator on
// each; TestScaleSerialParallel pins serial ≡ parallel output on each, and
// TestIntegrateAllocBudget bounds what each allocates. Timing claims come
// from the repository benchmark (qibench/ under BENCHMARK.json) alone.

// scaleCorpus generates a preset corpus and the base Config that labels
// it: the (possibly extended) lexicon, with the matcher on — pairwise
// matching is one of the two embarrassingly-parallel stages, so every
// preset pays it.
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

// BenchmarkWarm contrasts a cache-cold Integrator (disableWarmCache: every
// iteration recomputes the full pipeline) with a warm one repeatedly
// integrating the same corpus. The warm run still matches, merges and
// names the whole corpus; its warm cache answers only the per-label and
// per-pair facts (label analyses with their equivalence keys, Relate
// verdicts). Warm output is byte-identical to cold (TestWarmEquivalence);
// only the time differs.
func BenchmarkWarm(b *testing.B) {
	for _, size := range []string{"small", "medium", "mega"} {
		sources, cfg := scaleCorpus(b, size)
		for _, mode := range []struct {
			name    string
			disable bool
		}{{"cold", true}, {"warm", false}} {
			b.Run(size+"/"+mode.name, func(b *testing.B) {
				c := cfg
				c.disableWarmCache = mode.disable
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

// allocSlack is how far above its measured count a TestIntegrateAllocBudget
// row may allocate before it fails.
const allocSlack = 1.15

// TestIntegrateAllocBudget pins allocations per operation, which unlike
// time do not depend on the hardware: a row fails when its operation
// allocates more than allocSlack times the count measured when the row was
// last set. The rows are the Hotels one-shot with the matcher (serial and
// four workers), each synth preset through a cold (disableWarmCache) and a
// warm Integrator, decoding the mega preset's sources, the Relate memo
// resident and under churn, and one warm session add-and-remove cycle.
// Update a measured count deliberately when the pipeline legitimately
// changes shape; run with -v to see every count.
func TestIntegrateAllocBudget(t *testing.T) {
	rows := []struct {
		name     string
		measured float64 // allocs per run (Go 1.24, linux/amd64)
		long     bool    // skipped in -short mode
		op       func(t *testing.T) func()
	}{
		{"hotels/serial", 11_518, false, hotelsOneShot(1)},
		{"hotels/parallel", 11_613, false, hotelsOneShot(4)},
		{"small/cold", 3_591, false, presetRun("small", true)},
		{"small/warm", 2_311, false, presetRun("small", false)},
		{"medium/cold", 21_080, false, presetRun("medium", true)},
		{"medium/warm", 14_560, false, presetRun("medium", false)},
		{"mega/cold", 243_077, true, presetRun("mega", true)},
		{"mega/warm", 195_276, true, presetRun("mega", false)},
		{"mega/decode", 2_253, true, megaDecode},
		{"relate-memo/resident", 0, false, relateMemoPasses(60)},
		{"relate-memo/churn", 3_795_464, true, relateMemoPasses(360)},
		{"session/add", 10_302, false, sessionAddCycle},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			if r.long && testing.Short() {
				t.Skip("skipped in -short mode")
			}
			op := r.op(t)
			// AllocsPerRun runs op once before counting, which also primes
			// the warm rows' caches, and pins GOMAXPROCS to 1.
			allocs := testing.AllocsPerRun(1, op)
			ceiling := allocSlack * r.measured
			t.Logf("%.0f allocs/run (measured %.0f, ceiling %.0f)", allocs, r.measured, ceiling)
			if allocs > ceiling {
				t.Fatalf("%.0f allocs/run exceeds the ceiling %.0f (%.2f × the measured %.0f)",
					allocs, ceiling, allocSlack, r.measured)
			}
		})
	}
}

// hotelsOneShot is BenchmarkIntegrate's operation: a one-shot Integrate of
// the Hotels domain (30 interfaces) with the matcher on, at the given
// worker count.
func hotelsOneShot(workers int) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		sources, err := BuiltinDomain("Hotels")
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := Integrate(sources, WithMatcher(), WithParallelism(workers)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// presetRun is BenchmarkWarm's operation: one serial integration of a
// synth preset on an Integrator whose warm caches are off (cold) or primed
// by the previous run (warm).
func presetRun(size string, cold bool) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		sources, cfg := scaleCorpus(t, size)
		cfg.Parallelism = 1
		cfg.disableWarmCache = cold
		ig, err := NewIntegrator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := ig.Integrate(sources); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// megaDecode decodes the 192 sources of the mega preset through
// DecodeTrees, from the indented JSON EncodeTrees writes (encoding/json
// made 127,749 allocations decoding their compact encoding).
func megaDecode(t *testing.T) func() {
	sources, _ := scaleCorpus(t, "mega")
	data, err := EncodeTrees(sources)
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		if _, err := DecodeTrees(data); err != nil {
			t.Fatal(err)
		}
	}
}

// relateMemoPasses is BenchmarkRelateMemo's operation (internal/naming):
// every ordered pair of n labels through one Semantics' Relate memo, with
// the label analyses pre-warmed. 60 labels (3.6k pairs) stay inside one
// memo generation, so once the first pass has filled it every verdict is a
// hit and a pass allocates nothing; 360 (129.6k pairs) rotate it on every
// pass.
func relateMemoPasses(n int) func(t *testing.T) func() {
	return func(t *testing.T) func() {
		labels := make([]string, n)
		for i := range labels {
			labels[i] = fmt.Sprintf("departure city %d", i)
		}
		sem := naming.NewSemantics(nil)
		for _, l := range labels {
			sem.Relate(l, l)
		}
		return func() {
			for _, a := range labels {
				for _, b := range labels {
					sem.Relate(a, b)
				}
			}
		}
	}
}

// sessionAddCycle is BenchmarkDeltaAddSource's operation on the medium
// annotated corpus: one warm AddSource of the held-out last source, then
// the RemoveSource that restores the session.
func sessionAddCycle(t *testing.T) func() {
	sources, err := synth.Generate(deltaBenchConfig("medium"))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession()
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, src := range sources[:len(sources)-1] {
		if _, err := sess.AddSource(ctx, src); err != nil {
			t.Fatal(err)
		}
	}
	last := sources[len(sources)-1]
	return func() {
		h, err := sess.AddSource(ctx, last)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.RemoveSource(ctx, h); err != nil {
			t.Fatal(err)
		}
	}
}
