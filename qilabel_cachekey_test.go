package qilabel

import (
	"strings"
	"testing"
)

func TestCacheKeyOrderIndependent(t *testing.T) {
	a := sampleSources()
	b := sampleSources()
	b[0], b[2] = b[2], b[0]
	if CacheKey(a) != CacheKey(b) {
		t.Fatal("listing order changed the cache key")
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := CacheKey(sampleSources())
	edited := sampleSources()
	edited[1].Root.Children[0].Children[0].Label = "Elderly"
	if CacheKey(edited) == base {
		t.Fatal("editing a source label did not change the key")
	}
	if CacheKey(sampleSources()[:2]) == base {
		t.Fatal("dropping a source did not change the key")
	}
	if CacheKey(sampleSources(), WithMatcher()) == base {
		t.Fatal("WithMatcher did not change the key")
	}
	if CacheKey(sampleSources(), WithMaxLevel(1)) == base {
		t.Fatal("WithMaxLevel did not change the key")
	}
	if CacheKey(sampleSources(), WithMinFrequency(2)) == base {
		t.Fatal("WithMinFrequency did not change the key")
	}
	lex := DefaultLexicon().Clone()
	lex.AddSynonyms("traveller", "passenger")
	if CacheKey(sampleSources(), WithLexicon(lex)) == base {
		t.Fatal("a custom lexicon did not change the key")
	}
}

func TestFingerprintCanonical(t *testing.T) {
	if Fingerprint() != Fingerprint() {
		t.Fatal("fingerprint is not deterministic")
	}
	if Fingerprint(WithMatcher()) == Fingerprint() {
		t.Fatal("options do not affect the fingerprint")
	}
	if !strings.Contains(Fingerprint(), "lexicon=default") {
		t.Fatalf("fingerprint %q does not name the default lexicon", Fingerprint())
	}
	lex := DefaultLexicon().Clone()
	lex.AddSynonyms("traveller", "passenger")
	fp := Fingerprint(WithLexicon(lex))
	if strings.Contains(fp, "lexicon=default") {
		t.Fatalf("custom lexicon fingerprint %q claims the default", fp)
	}
	if fp != Fingerprint(WithLexicon(lex)) {
		t.Fatal("custom lexicon fingerprint is not deterministic")
	}
}

// Verification must run with the semantics the labeling used: a result
// built with a custom lexicon retains it (previously Verify fell back to
// the default-lexicon semantics).
func TestVerifyUsesConfiguredLexicon(t *testing.T) {
	lex := DefaultLexicon().Clone()
	lex.AddSynonyms("voyagers", "passengers")
	res, err := Integrate(sampleSources(), WithLexicon(lex))
	if err != nil {
		t.Fatal(err)
	}
	if res.lex != lex {
		t.Fatal("result did not retain the configured lexicon")
	}
	if v := res.Verify(); len(v) != 0 {
		t.Fatalf("algorithm output failed verification: %v", v)
	}
	// The default-configuration path must keep working too.
	plain, err := Integrate(sampleSources())
	if err != nil {
		t.Fatal(err)
	}
	if v := plain.Verify(); len(v) != 0 {
		t.Fatalf("default verification failed: %v", v)
	}
}

// TestCacheKeyDefaultLexiconContent: a lexicon whose content address is
// the embedded default's labels exactly as the default does, so it shares
// the default's fingerprint and cache keys — the resolution qilabeld
// applies to a lexicon selection, which in-process keys must agree with.
func TestCacheKeyDefaultLexiconContent(t *testing.T) {
	sources, err := BuiltinDomain("Airline")
	if err != nil {
		t.Fatal(err)
	}
	clone := WithLexicon(DefaultLexicon().Clone())
	if got, want := Fingerprint(clone), Fingerprint(); got != want {
		t.Fatalf("default-content lexicon fingerprints as %q, want %q", got, want)
	}
	if CacheKey(sources, clone) != CacheKey(sources) {
		t.Fatal("default-content lexicon splits the default's cache key")
	}
	plain, err := Integrate(sources)
	if err != nil {
		t.Fatal(err)
	}
	cloned, err := Integrate(sources, clone)
	if err != nil {
		t.Fatal(err)
	}
	if cloned.Summary() != plain.Summary() || cloned.Tree.String() != plain.Tree.String() {
		t.Fatal("default-content lexicon labels differently from the default")
	}
}
