package qilabel

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"testing"

	"qilabel/internal/synth"
)

// Warm-cache equivalence suite: an Integrator's cross-run cache (label
// interning with each label's equivalence keys, shared Relate verdicts) is
// a pure accelerator, so a warm run must be byte-identical to a cold one —
// and to the committed golden corpus. These tests are meant to run under
// -race -cpu=1,4: the stress test below hammers one handle from 32
// goroutines precisely to let the race detector see every cache path
// under contention.

// warmGoldenBytes serializes the compared facets of one result in the
// golden-corpus format, so domain runs can diff directly against
// testdata/golden/<domain>.json. It panics instead of failing the test so
// the stress test's worker goroutines can call it too.
func warmGoldenBytes(_ *testing.T, domain string, sources []*Tree, res *Result) []byte {
	data, err := json.MarshalIndent(goldenFile{
		Domain:  domain,
		Key:     CacheKey(sources),
		Class:   res.Class.String(),
		Labels:  res.Labels,
		Tree:    res.Tree.String(),
		Summary: res.Summary(),
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(data, '\n')
}

// TestWarmEquivalence pins warm ≡ cold ≡ golden over the seven builtin
// domains, then warm ≡ cold over a sweep of synthetic corpora sharing one
// vocabulary (so later seeds hit analyses and verdicts cached by earlier
// ones — the adversarial case for cross-corpus reuse).
func TestWarmEquivalence(t *testing.T) {
	for _, domain := range BuiltinDomains() {
		t.Run(domain, func(t *testing.T) {
			sources, err := BuiltinDomain(domain)
			if err != nil {
				t.Fatal(err)
			}
			coldIG, err := NewIntegrator(Config{disableWarmCache: true})
			if err != nil {
				t.Fatal(err)
			}
			warmIG, err := NewIntegrator(Config{})
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := coldIG.Integrate(sources)
			if err != nil {
				t.Fatal(err)
			}
			cold := warmGoldenBytes(t, domain, sources, coldRes)
			// Three passes on one handle: the first fills the cache, the
			// second answers from it, the third from promoted entries.
			for pass := 1; pass <= 3; pass++ {
				res, err := warmIG.Integrate(sources)
				if err != nil {
					t.Fatal(err)
				}
				if got := warmGoldenBytes(t, domain, sources, res); !bytes.Equal(got, cold) {
					t.Fatalf("warm pass %d diverges from cold for %s:\nwarm:\n%s\ncold:\n%s", pass, domain, got, cold)
				}
			}
			golden, err := os.ReadFile(goldenPath(domain))
			if err != nil {
				t.Fatalf("reading golden file: %v", err)
			}
			if !bytes.Equal(cold, golden) {
				t.Errorf("%s output diverges from golden corpus", domain)
			}
		})
	}

	t.Run("synth", func(t *testing.T) {
		seeds := 200
		if testing.Short() {
			seeds = 20
		}
		base := synth.Config{Domain: "warm-eq", Sources: 5, Concepts: 9,
			GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
			Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, HypernymLift: 0.1, Dropout: 0.1, Reorder: 0.2}}
		warmIG, err := NewIntegrator(Config{UseMatcher: true})
		if err != nil {
			t.Fatal(err)
		}
		coldIG, err := NewIntegrator(Config{UseMatcher: true, disableWarmCache: true})
		if err != nil {
			t.Fatal(err)
		}
		for seed := 0; seed < seeds; seed++ {
			cfg := base
			cfg.Seed = uint64(seed)
			sources, err := synth.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldRes, err := coldIG.Integrate(sources)
			if err != nil {
				t.Fatalf("seed %d cold: %v", seed, err)
			}
			cold := warmGoldenBytes(t, "synth", sources, coldRes)
			for pass := 1; pass <= 2; pass++ {
				res, err := warmIG.Integrate(sources)
				if err != nil {
					t.Fatalf("seed %d warm pass %d: %v", seed, pass, err)
				}
				if got := warmGoldenBytes(t, "synth", sources, res); !bytes.Equal(got, cold) {
					t.Fatalf("seed %d warm pass %d diverges from cold:\nwarm:\n%s\ncold:\n%s", seed, pass, got, cold)
				}
			}
		}
		st := warmIG.WarmStats()
		if st.LabelHits == 0 || st.VerdictHits == 0 {
			t.Errorf("synth sweep never hit the warm cache: %+v", st)
		}
	})
}

// TestWarmStress hammers one Integrator from 32 goroutines with four
// overlapping corpora (one vocabulary, stepped seeds): every concurrent
// warm result must match its cold reference byte for byte. Run under
// -race, this drives every cache path — intern, verdict shards,
// generation rotation — under contention.
func TestWarmStress(t *testing.T) {
	cfg := synth.Config{Seed: 11, Domain: "warm-stress", Sources: 6, Concepts: 10,
		GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
		Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, Dropout: 0.1, Reorder: 0.2}}
	corpora, err := synth.Corpus(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}

	coldIG, err := NewIntegrator(Config{UseMatcher: true, disableWarmCache: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(corpora))
	for i, sources := range corpora {
		res, err := coldIG.Integrate(sources)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = warmGoldenBytes(t, "stress", sources, res)
	}

	ig, err := NewIntegrator(Config{UseMatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 32
	iters := 8
	if testing.Short() {
		iters = 3
	}
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				i := (g + k) % len(corpora)
				res, err := ig.Integrate(corpora[i])
				if err != nil {
					errs <- fmt.Errorf("goroutine %d iter %d: %w", g, k, err)
					return
				}
				if got := warmGoldenBytes(t, "stress", corpora[i], res); !bytes.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d iter %d corpus %d: warm result diverges from cold", g, k, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := ig.WarmStats()
	if st.LabelHits == 0 || st.VerdictHits == 0 {
		t.Errorf("stress run never hit the warm cache: %+v", st)
	}
}

// TestWarmSharedBySessions drives eight sessions from one Integrator while
// one-shot Integrate calls run beside them on the same handle. Sessions
// read and write the Integrator's warm cache from many goroutines at once,
// over overlapping windows of two corpora sharing one vocabulary, so under
// -race every shared table is exercised by sessions and one-shot runs
// together. Every session state must equal a cold from-scratch run.
func TestWarmSharedBySessions(t *testing.T) {
	cfg := synth.Config{Seed: 23, Domain: "warm-shared", Sources: 7, Concepts: 9,
		GroupFanout: 3, Depth: 2, InstanceRatio: 0.5,
		Perturb: synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, Dropout: 0.3, Reorder: 0.2}}
	corpora, err := synth.Corpus(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, matcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("matcher=%v", matcher), func(t *testing.T) {
			ig, err := NewIntegrator(Config{UseMatcher: matcher})
			if err != nil {
				t.Fatal(err)
			}
			coldIG, err := NewIntegrator(Config{UseMatcher: matcher, disableWarmCache: true})
			if err != nil {
				t.Fatal(err)
			}
			cold := func(sources []*Tree) (string, error) {
				res, err := coldIG.Integrate(sources)
				if err != nil {
					return "", err
				}
				return renderFull(res), nil
			}

			const sessions, oneShots = 8, 4
			var wg sync.WaitGroup
			for g := 0; g < sessions; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					if err := driveSharedSession(ig, corpora[g%len(corpora)], g, cold); err != nil {
						t.Errorf("session %d: %v", g, err)
					}
				}(g)
			}
			for g := 0; g < oneShots; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					pool := corpora[g%len(corpora)]
					for n := 2; n <= len(pool); n++ {
						sources := pool[len(pool)-n:]
						res, err := ig.Integrate(sources)
						if err != nil {
							t.Errorf("one-shot %d n=%d: %v", g, n, err)
							return
						}
						want, err := cold(sources)
						if err != nil {
							t.Errorf("one-shot %d n=%d cold: %v", g, n, err)
							return
						}
						if renderFull(res) != want {
							t.Errorf("one-shot %d n=%d diverges from cold", g, n)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			if st := ig.WarmStats(); st.VerdictHits == 0 {
				t.Errorf("sessions and one-shot runs never shared the warm cache: %+v", st)
			}
		})
	}
}

// driveSharedSession runs one session of TestWarmSharedBySessions: five
// adds over a window of the pool starting at g, an update and a remove,
// checking the state against a cold run after every operation.
func driveSharedSession(ig *Integrator, pool []*Tree, g int, cold func([]*Tree) (string, error)) error {
	ctx := context.Background()
	sess := ig.NewSession()
	check := func(op string) error {
		res, err := sess.Result()
		if err != nil {
			return fmt.Errorf("%s: %w", op, err)
		}
		want, err := cold(sess.Sources())
		if err != nil {
			return fmt.Errorf("%s cold: %w", op, err)
		}
		if renderFull(res) != want {
			return fmt.Errorf("%s: session state diverges from a cold run", op)
		}
		return nil
	}
	var hashes []string
	for k := 0; k < 5; k++ {
		h, err := sess.AddSource(ctx, pool[(g+k)%len(pool)])
		if err != nil {
			return err
		}
		hashes = append(hashes, h)
		if err := check(fmt.Sprintf("add %d", k)); err != nil {
			return err
		}
	}
	if _, err := sess.UpdateSource(ctx, hashes[1], pool[(g+5)%len(pool)]); err != nil {
		return err
	}
	if err := check("update"); err != nil {
		return err
	}
	if err := sess.RemoveSource(ctx, hashes[0]); err != nil {
		return err
	}
	return check("remove")
}

// TestWarmEpochResetExactlyOnce pins the warm cache's invalidation
// contract the versioned-lexicon layer leans on: mutating the lexicon
// bumps its Generation, and the Integrator's warm cache resets exactly
// ONCE per bump — even when 32 goroutines observe the stale generation
// simultaneously, with or without the matcher reading it — and never
// otherwise. (Registered registry versions are immutable, so
// under multi-tenant serving this counter stays at zero; see the server's
// hot-reload test.)
func TestWarmEpochResetExactlyOnce(t *testing.T) {
	sources, err := BuiltinDomain(BuiltinDomains()[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, matcher := range []bool{false, true} {
		t.Run(fmt.Sprintf("matcher=%t", matcher), func(t *testing.T) {
			lex := DefaultLexicon().Clone()
			ig, err := NewIntegrator(Config{Lexicon: lex, UseMatcher: matcher})
			if err != nil {
				t.Fatal(err)
			}

			hammer := func() {
				t.Helper()
				var wg sync.WaitGroup
				errs := make(chan error, 32)
				for g := 0; g < 32; g++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if _, err := ig.Integrate(sources); err != nil {
							errs <- err
						}
					}()
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Error(err)
				}
			}

			hammer()
			if r := ig.WarmStats().EpochResets; r != 0 {
				t.Fatalf("EpochResets = %d before any lexicon mutation, want 0", r)
			}

			// One bump, 32 concurrent observers: exactly one reset.
			lex.AddSynonyms("teleport", "blink")
			hammer()
			if r := ig.WarmStats().EpochResets; r != 1 {
				t.Fatalf("EpochResets = %d after one Generation bump, want exactly 1", r)
			}

			// Steady state stays steady; a second bump costs exactly one more.
			hammer()
			if r := ig.WarmStats().EpochResets; r != 1 {
				t.Fatalf("EpochResets = %d with no further mutation, want still 1", r)
			}
			lex.AddSynonyms("jaunt", "hop")
			hammer()
			if r := ig.WarmStats().EpochResets; r != 2 {
				t.Fatalf("EpochResets = %d after the second bump, want 2", r)
			}
		})
	}
}
