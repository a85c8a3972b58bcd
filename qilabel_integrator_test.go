package qilabel

import (
	"context"
	"strings"
	"testing"
)

// TestIntegratorMatchesPackageLevel pins the thin-wrapper contract: an
// Integrator's output is byte-identical to the package-level entry points
// over the same configuration, and stays identical across warm repeat
// calls (the warm caches are pure accelerators).
func TestIntegratorMatchesPackageLevel(t *testing.T) {
	sources, err := BuiltinDomain("Airline")
	if err != nil {
		t.Fatal(err)
	}
	want, err := Integrate(sources, WithMatcher())
	if err != nil {
		t.Fatal(err)
	}
	ig, err := NewIntegrator(Config{UseMatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 3; call++ {
		got, err := ig.Integrate(sources)
		if err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if got.Tree.String() != want.Tree.String() {
			t.Fatalf("call %d: integrator tree differs from package-level tree", call)
		}
		if got.Naming.Explain() != want.Naming.Explain() {
			t.Fatalf("call %d: integrator explanation differs", call)
		}
	}
}

func TestNewIntegratorValidates(t *testing.T) {
	if _, err := NewIntegrator(Config{MaxLevel: 7}); err == nil {
		t.Fatal("NewIntegrator accepted MaxLevel=7")
	}
	if _, err := NewIntegrator(Config{MinFrequency: -1}); err == nil {
		t.Fatal("NewIntegrator accepted negative MinFrequency")
	}
	if _, err := NewIntegrator(Config{Parallelism: -2}); err == nil {
		t.Fatal("NewIntegrator accepted negative Parallelism")
	}
}

func TestIntegratorEmptySources(t *testing.T) {
	ig, err := NewIntegrator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ig.Integrate(nil); err == nil ||
		!strings.Contains(err.Error(), "no source interfaces") {
		t.Fatalf("empty-source error = %v", err)
	}
}

// TestIntegratorFingerprintAndCacheKey pins that the handle's cached
// fingerprint and cache keys agree with the package-level definitions.
func TestIntegratorFingerprintAndCacheKey(t *testing.T) {
	sources, err := BuiltinDomain("Book")
	if err != nil {
		t.Fatal(err)
	}
	lex := DefaultLexicon().Clone()
	lex.AddSynonyms("destination", "arrival city")
	cfg := Config{UseMatcher: true, Lexicon: lex, MinFrequency: 2}
	ig, err := NewIntegrator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ig.Fingerprint(), cfg.Fingerprint(); got != want {
		t.Fatalf("Fingerprint = %q, want %q", got, want)
	}
	if got, want := ig.Fingerprint(), ig.Fingerprint(); got != want {
		t.Fatalf("cached Fingerprint unstable: %q vs %q", got, want)
	}
	wantKey := CacheKey(sources, WithConfig(cfg))
	if got := ig.CacheKey(sources); got != wantKey {
		t.Fatalf("CacheKey = %q, want %q", got, wantKey)
	}
}

// TestIntegratorBatchAndSession exercises the remaining handle methods:
// the batch fan-out deduplicates by the handle's cache key, and sessions
// created from the handle converge to the one-shot result.
func TestIntegratorBatchAndSession(t *testing.T) {
	sources, err := BuiltinDomain("Job")
	if err != nil {
		t.Fatal(err)
	}
	ig, err := NewIntegrator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	items := ig.IntegrateBatch(context.Background(), [][]*Tree{sources, sources, nil}, 1)
	if len(items) != 3 {
		t.Fatalf("batch returned %d items", len(items))
	}
	if items[0].Err != nil || items[1].Err != nil {
		t.Fatalf("batch errors: %v / %v", items[0].Err, items[1].Err)
	}
	if !items[1].Shared || items[1].Key != items[0].Key {
		t.Fatal("duplicate set not shared")
	}
	if items[2].Err == nil {
		t.Fatal("empty set did not error")
	}

	sess := ig.NewSession()
	for _, src := range sources {
		if _, err := sess.AddSource(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	sres, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Tree.String() != items[0].Result.Tree.String() {
		t.Fatal("session result differs from batch result over the same sources")
	}
	if sess.Fingerprint() != ig.Fingerprint() {
		t.Fatal("session fingerprint differs from integrator fingerprint")
	}
}
