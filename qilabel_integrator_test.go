package qilabel

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"qilabel/internal/schema"
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

// TestIntegrateOwnedMatchesIntegrateContext: trees handed over, in
// another listing order and with or without their hashes, integrate to
// IntegrateContext's result, which keeps the very trees handed over, not
// copies; invalid trees fail with IntegrateContext's error.
func TestIntegrateOwnedMatchesIntegrateContext(t *testing.T) {
	ctx := context.Background()
	query := Query{"c_Adult": "2", "c_Child": "1", "c_Make": "ford", "c_Title": "go"}
	for _, name := range BuiltinDomains() {
		for _, cfg := range []Config{{}, {UseMatcher: true}} {
			ig, err := NewIntegrator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sources, err := BuiltinDomain(name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ig.IntegrateContext(ctx, sources)
			if err != nil {
				t.Fatal(err)
			}
			for _, withHashes := range []bool{false, true} {
				owned, _ := BuiltinDomain(name)
				slices.Reverse(owned)
				var hashes []string
				if withHashes {
					hashes = schema.TreeHashes(owned)
				}
				handed := slices.Clone(owned)
				got, err := ig.IntegrateOwned(ctx, owned, hashes)
				if err != nil {
					t.Fatal(err)
				}
				if got.Tree.String() != want.Tree.String() || got.Naming.Explain() != want.Naming.Explain() ||
					!slices.EqualFunc(got.Translate(query), want.Translate(query), func(a, b SubQuery) bool {
						return a.Interface == b.Interface && len(a.Assignments) == len(b.Assignments) &&
							slices.Equal(a.Unsupported, b.Unsupported)
					}) {
					t.Fatalf("%s %+v (hashes %v): owned integration differs from IntegrateContext's", name, cfg, withHashes)
				}
				for _, tr := range got.Merge.Sources {
					if !slices.Contains(handed, tr) {
						t.Fatalf("%s: the result holds a tree that was not handed over", name)
					}
				}
			}
		}
	}

	ig, err := NewIntegrator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	invalid := []*Tree{NewTree("a", NewField("x", "c")), {Interface: "b"}}
	_, want := ig.IntegrateContext(ctx, invalid)
	if _, got := ig.IntegrateOwned(ctx, invalid, nil); got == nil || want == nil || got.Error() != want.Error() {
		t.Fatalf("invalid tree: IntegrateOwned error %v, IntegrateContext error %v", got, want)
	}
	if _, err := ig.IntegrateOwned(ctx, []*Tree{NewTree("a", NewField("x", "c"))}, []string{}); err == nil {
		t.Fatal("IntegrateOwned accepted no hash for one tree")
	}
}

// TestResultTranslateConcurrent: goroutines translating against one
// shared Result (a session's, say) race to build its index once and all
// get what a fresh integration translates to.
func TestResultTranslateConcurrent(t *testing.T) {
	sources, err := BuiltinDomain("Airline")
	if err != nil {
		t.Fatal(err)
	}
	shared, err := Integrate(sources)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Integrate(sources)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{{"c_Adult": "2", "c_Child": "1"}, {"c_Class": "econ", "c_Nope": "x"}, {}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			if got, want := shared.Translate(q), fresh.Translate(q); !reflect.DeepEqual(got, want) {
				t.Errorf("query %v: concurrent translation %+v, want %+v", q, got, want)
			}
		}(g)
	}
	wg.Wait()
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
