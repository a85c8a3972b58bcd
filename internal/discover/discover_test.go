package discover

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"qilabel"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// testLexicon gives three disjoint mini-domains plus a synonym bridge
// word per domain, so merge scenarios can be built by hand.
func testLexicon() *qilabel.Lexicon {
	lex := qilabel.NewLexicon()
	lex.AddSynonyms("passenger", "traveler")
	lex.AddSynonyms("destination", "arrival city")
	lex.AddSynonyms("departure", "leaving")
	lex.AddSynonyms("author", "writer")
	lex.AddSynonyms("title", "name of book")
	lex.AddSynonyms("publisher", "press")
	lex.AddSynonyms("actor", "performer")
	lex.AddSynonyms("director", "filmmaker")
	lex.AddSynonyms("genre", "category")
	return lex
}

func testEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Integrator == nil {
		ig, err := qilabel.NewIntegrator(qilabel.Config{
			Lexicon:    testLexicon(),
			UseMatcher: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Integrator = ig
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func form(iface string, labels ...string) *schema.Tree {
	nodes := make([]*schema.Node, len(labels))
	for i, l := range labels {
		nodes[i] = schema.NewField(l, "")
	}
	return schema.NewTree(iface, nodes...)
}

func mustIngest(t *testing.T, e *Engine, tr *schema.Tree) *Assignment {
	t.Helper()
	a, err := e.Ingest(context.Background(), tr)
	if err != nil {
		t.Fatalf("Ingest(%s): %v", tr.Interface, err)
	}
	return a
}

func TestEngineAssignsByLabelSemantics(t *testing.T) {
	e := testEngine(t, Config{})

	a1 := mustIngest(t, e, form("flights-a", "Passenger", "Destination", "Departure"))
	if !a1.New || a1.Sources != 1 || a1.Domains != 1 {
		t.Fatalf("first form: got %+v, want New with 1 source, 1 domain", a1)
	}
	if a1.Domain != a1.FormHash {
		t.Fatalf("singleton domain ID %q != founder hash %q", a1.Domain, a1.FormHash)
	}

	// Synonym-swapped labels land in the same domain.
	a2 := mustIngest(t, e, form("flights-b", "Traveler", "Arrival City", "Leaving"))
	if a2.New || a2.Domains != 1 || a2.Sources != 2 {
		t.Fatalf("synonym form: got %+v, want joined existing domain", a2)
	}
	if a2.Similarity < e.Threshold() {
		t.Fatalf("similarity %v below threshold %v yet joined", a2.Similarity, e.Threshold())
	}

	// A disjoint vocabulary founds a second domain.
	a3 := mustIngest(t, e, form("books-a", "Author", "Title", "Publisher"))
	if !a3.New || a3.Domains != 2 {
		t.Fatalf("disjoint form: got %+v, want new second domain", a3)
	}

	infos, err := e.Domains()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("Domains() = %d entries, want 2", len(infos))
	}
	for _, info := range infos {
		if info.Key == "" || info.Class == "" {
			t.Fatalf("incomplete DomainInfo: %+v", info)
		}
		if len(info.Clusters) == 0 {
			t.Fatalf("domain %s: no cluster summary", info.ID)
		}
		for _, c := range info.Clusters {
			if c.Frequency < 1 || len(c.Labels) == 0 {
				t.Fatalf("domain %s cluster %q: bad summary %+v", info.ID, c.Name, c)
			}
		}
	}
}

func TestEngineDuplicateIsNoOp(t *testing.T) {
	e := testEngine(t, Config{})
	tr := form("flights-a", "Passenger", "Destination")
	a1 := mustIngest(t, e, tr)
	before, err := e.Domains()
	if err != nil {
		t.Fatal(err)
	}

	a2 := mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	if !a2.Duplicate {
		t.Fatalf("re-ingest: got %+v, want Duplicate", a2)
	}
	if a2.Domain != a1.Domain || a2.Key != a1.Key || a2.Sources != 1 {
		t.Fatalf("duplicate changed state: %+v vs %+v", a2, a1)
	}
	after, err := e.Domains()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("duplicate mutated listing:\n before %+v\n after  %+v", before, after)
	}
	st := e.Stats()
	if st.Ingested != 2 || st.Duplicates != 1 || st.Created != 1 {
		t.Fatalf("stats %+v, want 2 ingested / 1 duplicate / 1 created", st)
	}
}

func TestEngineMergesBridgedDomains(t *testing.T) {
	e := testEngine(t, Config{})
	a1 := mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	a2 := mustIngest(t, e, form("books-a", "Author", "Title"))
	if a1.Domain == a2.Domain {
		t.Fatalf("setup: forms unexpectedly share a domain")
	}

	// The bridge relates to both sides strongly enough to join each.
	bridge := mustIngest(t, e, form("bridge", "Traveler", "Destination", "Writer", "Title"))
	if len(bridge.Merged) != 2 || bridge.Domains != 1 || bridge.Sources != 3 {
		t.Fatalf("bridge: got %+v, want 2 merged into one 3-source domain", bridge)
	}
	st := e.Stats()
	if st.Merged != 2 || st.Domains != 1 || st.Forms != 3 {
		t.Fatalf("stats after merge: %+v", st)
	}

	// The merged domain answers lookups under its canonical (min-hash) ID
	// and its integration covers all three member forms.
	res, key, sources, err := e.Result(bridge.Domain)
	if err != nil {
		t.Fatal(err)
	}
	if key != bridge.Key || len(sources) != 3 {
		t.Fatalf("Result: key %q (want %q), %d sources", key, bridge.Key, len(sources))
	}
	if err := res.Mapping.Validate(); err != nil {
		t.Fatalf("merged mapping invalid: %v", err)
	}

	// The old IDs are gone.
	for _, old := range bridge.Merged {
		if old == bridge.Domain {
			continue
		}
		if _, err := e.Domain(old); !errors.Is(err, ErrUnknownDomain) {
			t.Fatalf("stale ID %q still resolves (err=%v)", old, err)
		}
	}
}

// TestEngineBridgingIngestRunsOnce: a form bridging two domains of two
// forms each re-integrates the union in one pipeline run on the engine's
// Integrator, and a canceled bridging ingest changes no domain.
func TestEngineBridgingIngestRunsOnce(t *testing.T) {
	var events []qilabel.StageEvent
	ig, err := qilabel.NewIntegrator(qilabel.Config{
		Lexicon:    testLexicon(),
		UseMatcher: true,
		Observer:   func(ev qilabel.StageEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Integrator: ig})
	mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	mustIngest(t, e, form("flights-b", "Traveler", "Destination"))
	mustIngest(t, e, form("books-a", "Author", "Title"))
	mustIngest(t, e, form("books-b", "Writer", "Title"))
	before := e.Partition()
	if len(before) != 2 {
		t.Fatalf("setup: %d domains, want 2", len(before))
	}

	bridge := form("bridge", "Traveler", "Destination", "Writer", "Title")
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Ingest(canceled, bridge); err == nil {
		t.Fatal("canceled bridging ingest succeeded")
	}
	if after := e.Partition(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("canceled ingest changed the partition:\nbefore %v\nafter  %v", before, after)
	}

	events = nil
	a := mustIngest(t, e, bridge)
	if len(a.Merged) != 2 || a.Sources != 5 {
		t.Fatalf("bridge: %+v, want 2 domains merged into 5 sources", a)
	}
	namings, validated := 0, 0
	for _, ev := range events {
		switch ev.Stage {
		case "naming":
			namings++
		case "validate":
			validated += ev.Units
		}
	}
	if namings != 1 || validated != 5 {
		t.Fatalf("bridging ingest: %d naming runs over %d sources, want 1 over 5 (%v)", namings, validated, events)
	}
}

func TestEngineMergedTreeMatchesBatchIntegrate(t *testing.T) {
	e := testEngine(t, Config{})
	forms := []*schema.Tree{
		form("flights-a", "Passenger", "Destination"),
		form("flights-b", "Traveler", "Departure"),
		form("flights-c", "Leaving", "Arrival City"),
	}
	var last *Assignment
	for _, f := range forms {
		last = mustIngest(t, e, f)
	}
	if last.Domains != 1 {
		t.Fatalf("expected one domain, got %d", last.Domains)
	}
	res, key, _, err := e.Result(last.Domain)
	if err != nil {
		t.Fatal(err)
	}

	batch, err := qilabel.Integrate(forms,
		qilabel.WithLexicon(testLexicon()), qilabel.WithMatcher())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Tree.CanonicalHash(), batch.Tree.CanonicalHash(); got != want {
		t.Fatalf("ingested tree %s != batch Integrate tree %s", got, want)
	}
	if wantKey := qilabel.CacheKey(forms,
		qilabel.WithLexicon(testLexicon()), qilabel.WithMatcher()); key != wantKey {
		t.Fatalf("domain key %q != batch CacheKey %q", key, wantKey)
	}
}

func TestEngineTTLEviction(t *testing.T) {
	clock := time.Unix(0, 0)
	e := testEngine(t, Config{
		TTL: time.Minute,
		Now: func() time.Time { return clock },
	})
	evDomains, evForms := 0, 0
	e.onEvict = func(d, f int) { evDomains += d; evForms += f }

	a := mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	clock = clock.Add(30 * time.Second)
	mustIngest(t, e, form("books-a", "Author", "Title"))

	// The flights domain is 61s idle, the books domain 31s: one evicts.
	clock = clock.Add(31 * time.Second)
	if n := e.Len(); n != 1 {
		t.Fatalf("after TTL: %d domains, want 1", n)
	}
	if evDomains != 1 || evForms != 1 {
		t.Fatalf("OnEvict saw %d domains / %d forms, want 1/1", evDomains, evForms)
	}
	if _, err := e.Domain(a.Domain); !errors.Is(err, ErrUnknownDomain) {
		t.Fatalf("evicted domain still resolves (err=%v)", err)
	}

	// Eviction forgets the forms: re-ingesting rediscovers the domain
	// rather than reporting a duplicate.
	again := mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	if !again.New || again.Duplicate {
		t.Fatalf("re-ingest after eviction: got %+v, want New", again)
	}
	if st := e.Stats(); st.Evicted != 1 {
		t.Fatalf("stats %+v, want 1 evicted", st)
	}
}

func TestEngineMaxDomainsLRU(t *testing.T) {
	clock := time.Unix(0, 0)
	e := testEngine(t, Config{
		MaxDomains: 2,
		Now:        func() time.Time { return clock },
	})
	a1 := mustIngest(t, e, form("flights-a", "Passenger", "Destination"))
	clock = clock.Add(time.Second)
	mustIngest(t, e, form("books-a", "Author", "Title"))
	clock = clock.Add(time.Second)

	// Touch the flights domain so books becomes the LRU.
	mustIngest(t, e, form("flights-b", "Traveler", "Arrival City"))
	clock = clock.Add(time.Second)

	a4 := mustIngest(t, e, form("movies-a", "Actor", "Director"))
	if a4.Domains != 2 {
		t.Fatalf("after cap: %d domains, want 2", a4.Domains)
	}
	if _, err := e.Domain(a1.Domain); err != nil {
		t.Fatalf("recently used domain evicted: %v", err)
	}
	ids := map[string]bool{}
	infos, err := e.Domains()
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		ids[info.ID] = true
	}
	if !ids[a1.Domain] || !ids[a4.Domain] {
		t.Fatalf("surviving domains %v, want flights %s + movies %s", ids, a1.Domain, a4.Domain)
	}
}

func TestEngineRejectsInvalidInput(t *testing.T) {
	e := testEngine(t, Config{})
	if _, err := e.Ingest(context.Background(), nil); err == nil {
		t.Fatal("nil form accepted")
	}
	if _, err := e.Ingest(context.Background(), form("", "Label")); err == nil {
		t.Fatal("unnamed interface accepted")
	}
	if st := e.Stats(); st.Ingested != 0 {
		t.Fatalf("failed ingests counted: %+v", st)
	}
}

func TestEngineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("nil Integrator accepted")
	}
	ig, err := qilabel.NewIntegrator(qilabel.Config{UseMatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Integrator: ig, Threshold: 1.5}); err == nil {
		t.Fatal("out-of-range threshold accepted")
	}
	e, err := New(Config{Integrator: ig})
	if err != nil {
		t.Fatal(err)
	}
	if e.Threshold() != DefaultThreshold {
		t.Fatalf("zero threshold resolved to %v, want %v", e.Threshold(), DefaultThreshold)
	}
}

func TestEngineRecoversSynthGroundTruth(t *testing.T) {
	stream, lex, err := synth.Stream(synth.StreamConfig{
		Seed:    7,
		Domains: 2,
		Base: synth.Config{
			Sources:  3,
			Concepts: 5,
			Perturb:  synth.Perturb{SynonymSwap: 0.5, NumberVary: 0.3, Noise: 0.3, Dropout: 0.2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ig, err := qilabel.NewIntegrator(qilabel.Config{Lexicon: lex, UseMatcher: true})
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, Config{Integrator: ig})

	want := make(map[int]map[string]bool) // ground-truth domain -> hashes
	for _, f := range stream {
		if want[f.Domain] == nil {
			want[f.Domain] = make(map[string]bool)
		}
		want[f.Domain][f.Tree.CanonicalHash()] = true
		mustIngest(t, e, f.Tree)
	}
	part := e.Partition()
	if len(part) != len(want) {
		t.Fatalf("discovered %d domains, want %d: %v", len(part), len(want), part)
	}
	for id, hashes := range part {
		matched := false
		for _, truth := range want {
			if len(truth) != len(hashes) {
				continue
			}
			all := true
			for _, h := range hashes {
				if !truth[h] {
					all = false
					break
				}
			}
			if all {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("discovered domain %s does not match any ground-truth domain", id)
		}
	}
}
