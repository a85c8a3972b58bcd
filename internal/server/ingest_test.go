package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qilabel"
	"qilabel/internal/synth"
)

// ingestLexicon mirrors the discover package's test vocabulary: three
// disjoint mini-domains whose labels relate only within a domain.
func ingestLexicon() *qilabel.Lexicon {
	lex := qilabel.NewLexicon()
	lex.AddSynonyms("passenger", "traveler", "occupant")
	lex.AddSynonyms("destination", "place")
	lex.AddSynonyms("departure", "leaving")
	lex.AddSynonyms("author", "writer")
	lex.AddSynonyms("title", "heading")
	return lex
}

func ingestTree(iface string, labels ...string) *qilabel.Tree {
	nodes := make([]*qilabel.Node, len(labels))
	for i, l := range labels {
		nodes[i] = qilabel.NewField(l, "")
	}
	return qilabel.NewTree(iface, nodes...)
}

func ingestSource(t *testing.T, url string, tree *qilabel.Tree) ingestResponse {
	t.Helper()
	var out ingestResponse
	resp := doJSON(t, http.MethodPost, url+"/v1/ingest", ingestRequest{Source: tree}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest %s: status %d", tree.Interface, resp.StatusCode)
	}
	if len(out.Assignments) != 1 {
		t.Fatalf("ingest %s: %d assignments, want 1", tree.Interface, len(out.Assignments))
	}
	return out
}

// TestIngestLifecycleHTTP drives the whole discovery surface: HTML
// ingestion, tree ingestion, domain listing and lookup, the duplicate
// no-op, the wire-level equivalence with /v1/integrate, translate interop
// and the exact /metrics discovery section.
func TestIngestLifecycleHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Lexicon: ingestLexicon()})

	// One page with two forms of two different domains.
	var first ingestResponse
	page := `<form id="flights-a"><label>Passenger</label><input name=p>` +
		`<label>Destination</label><input name=d></form>` +
		`<form id="books-a"><label>Author</label><input name=a>` +
		`<label>Title</label><input name=t></form>`
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/ingest", ingestRequest{HTML: page}, &first)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest page: status %d", resp.StatusCode)
	}
	if len(first.Assignments) != 2 || first.Domains != 2 {
		t.Fatalf("page ingest: %+v, want 2 assignments / 2 domains", first)
	}
	for _, a := range first.Assignments {
		if !a.New || a.Key == "" || a.Domain == "" {
			t.Fatalf("bad page assignment: %+v", a)
		}
	}

	// A synonym-labeled tree joins the flights domain rather than
	// founding a third.
	joined := ingestSource(t, ts.URL, ingestTree("flights-b", "Traveler", "Place"))
	ja := joined.Assignments[0]
	if ja.New || ja.Duplicate || joined.Domains != 2 || ja.Sources != 2 {
		t.Fatalf("synonym ingest: %+v, want join of existing domain", joined)
	}

	// Re-ingesting the same tree is a duplicate no-op.
	dup := ingestSource(t, ts.URL, ingestTree("flights-b", "Traveler", "Place"))
	da := dup.Assignments[0]
	if !da.Duplicate || da.Domain != ja.Domain || da.Sources != 2 {
		t.Fatalf("duplicate ingest: %+v", dup)
	}

	// The listing exposes both domains with their cluster summaries.
	var listing discoveredResponse
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered", nil, &listing); resp.StatusCode != http.StatusOK {
		t.Fatalf("listing: status %d", resp.StatusCode)
	}
	if len(listing.Domains) != 2 || listing.Threshold == 0 {
		t.Fatalf("listing: %+v", listing)
	}
	var flights discoveredDomainJSON
	for _, d := range listing.Domains {
		if d.ID == ja.Domain {
			flights = d
		}
		if d.Key == "" || d.Class == "" || len(d.Clusters) == 0 || d.Sources != len(d.Forms) {
			t.Fatalf("incomplete domain entry: %+v", d)
		}
	}
	if flights.ID == "" || flights.Sources != 2 {
		t.Fatalf("flights domain missing from listing: %+v", listing)
	}

	// Single-domain lookup agrees with the listing; unknown IDs are 404s
	// with the shared envelope.
	var one discoveredDomainJSON
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered/"+flights.ID, nil, &one); resp.StatusCode != http.StatusOK {
		t.Fatalf("domain lookup: status %d", resp.StatusCode)
	}
	if one.Key != flights.Key || one.Sources != flights.Sources {
		t.Fatalf("lookup %+v disagrees with listing %+v", one, flights)
	}
	var envelope errorEnvelope
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered/nope", nil, &envelope); resp.StatusCode != http.StatusNotFound || envelope.Error.Code != codeNotFound {
		t.Fatalf("unknown domain: status %d, %+v", resp.StatusCode, envelope)
	}

	// Wire-level equivalence: a /v1/integrate of the discovered domain's
	// member sources is a warm cache hit under the very same key.
	members := []*qilabel.Tree{
		ingestTree("flights-a", "Passenger", "Destination"),
		ingestTree("flights-b", "Traveler", "Place"),
	}
	var batch integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: members, Options: requestOptions{Matcher: true}}), &batch)
	if batch.Key != flights.Key {
		t.Fatalf("batch integrate key %s != discovered key %s", batch.Key, flights.Key)
	}
	if !batch.Cached {
		t.Fatal("batch integrate of a discovered domain missed the cache — ingest did not publish")
	}

	// Translate interop against the discovered domain's key.
	cluster := flights.Clusters[0].Name
	var tr translateResponse
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/translate",
		translateRequest{Key: flights.Key, Query: map[string]string{cluster: "2"}}, &tr); resp.StatusCode != http.StatusOK || len(tr.SubQueries) == 0 {
		t.Fatalf("translate against discovered key: status %d, %+v", resp.StatusCode, tr)
	}

	// The discovery metrics section is exact: 4 ingested (3 trees + 1
	// duplicate arrived as 4 accepted forms), 1 duplicate, 2 created, no
	// merges or evictions, 2 live domains holding 3 forms.
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	want := discoverySnapshot{
		Active: 2, Forms: 3, Ingested: 4, Duplicates: 1,
		Created: 2, Merged: 0, Evicted: 0, Threshold: listing.Threshold,
	}
	if snap.Discovery != want {
		t.Fatalf("discovery metrics %+v, want %+v", snap.Discovery, want)
	}
}

func mustGet(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestIngestConcurrentSameDomain hammers one domain from many goroutines
// (run under -race): every form carries related labels, so the engine
// must serialize them into a single coherent domain. The server gets a
// slot per goroutine: the default of two per CPU would answer some of the
// simultaneous ingests with 503 on a small machine, which is saturation,
// not what this test checks.
func TestIngestConcurrentSameDomain(t *testing.T) {
	const n = 12
	_, ts := newTestServer(t, Config{Lexicon: ingestLexicon(), MaxInflight: n})
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tree := ingestTree(fmt.Sprintf("flights-%02d", i), "Passenger", "Destination")
			var out ingestResponse
			resp, err := tryDoJSON(http.MethodPost, ts.URL+"/v1/ingest", ingestRequest{Source: tree}, &out)
			switch {
			case err != nil:
				errs <- fmt.Errorf("ingest %d: %w", i, err)
			case resp.StatusCode != http.StatusOK:
				errs <- fmt.Errorf("ingest %d: status %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var listing discoveredResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered", nil, &listing)
	if len(listing.Domains) != 1 {
		t.Fatalf("concurrent ingests split into %d domains", len(listing.Domains))
	}
	if got := listing.Domains[0].Sources; got != n {
		t.Fatalf("domain holds %d sources, want %d", got, n)
	}
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	if snap.Discovery.Ingested != n || snap.Discovery.Created != 1 {
		t.Fatalf("discovery metrics %+v, want %d ingested / 1 created", snap.Discovery, n)
	}
}

// TestIngestSynthStreamRecoversPartition streams a shuffled two-domain
// synth corpus through /v1/ingest from concurrent workers, re-ingesting
// every other form right after its first ingest. No request may fail, the
// final listing must hold exactly the ground-truth domains member for
// member, a translate against a discovered domain must answer, and the
// /metrics discovery counters must account for every request.
func TestIngestSynthStreamRecoversPartition(t *testing.T) {
	const workers = 3
	stream, lex, err := synth.Stream(synth.StreamConfig{
		Seed:    21,
		Domains: 2,
		Base: synth.Config{
			Sources: 4, Concepts: 5,
			Perturb: synth.Perturb{SynonymSwap: 0.4, Noise: 0.3, Reorder: 0.3},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Lexicon: lex, MaxInflight: workers})

	// ingest runs on the worker goroutines, so it returns its failure
	// instead of failing t.
	ingest := func(i int, tree *qilabel.Tree, wantDuplicate bool) error {
		data, err := json.Marshal(ingestRequest{Source: tree})
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+"/v1/ingest", "application/json", bytes.NewReader(data))
		if err != nil {
			return fmt.Errorf("form %d: %v", i, err)
		}
		defer resp.Body.Close()
		var out ingestResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("form %d: decoding response: %v", i, err)
		}
		switch {
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("form %d: status %d", i, resp.StatusCode)
		case len(out.Assignments) != 1 || out.Assignments[0].Domain == "":
			return fmt.Errorf("form %d: assignments %+v, want one with a domain", i, out.Assignments)
		case out.Assignments[0].Duplicate != wantDuplicate:
			return fmt.Errorf("form %d: duplicate = %v, want %v", i, out.Assignments[0].Duplicate, wantDuplicate)
		}
		return nil
	}
	work := make(chan int)
	errs := make(chan error, 2*len(stream))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if err := ingest(i, stream[i].Tree, false); err != nil {
					errs <- err
				} else if i%2 == 0 {
					if err := ingest(i, stream[i].Tree, true); err != nil {
						errs <- err
					}
				}
			}
		}()
	}
	for i := range stream {
		work <- i
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The partition, member for member: each discovered domain's form
	// hashes must be exactly one ground-truth domain's.
	want := make(map[string]bool)
	members := make(map[int][]string)
	for _, f := range stream {
		members[f.Domain] = append(members[f.Domain], f.Tree.CanonicalHash())
	}
	for _, hashes := range members {
		sort.Strings(hashes)
		want[strings.Join(hashes, ",")] = true
	}
	var listing discoveredResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered", nil, &listing)
	if len(listing.Domains) != len(want) {
		t.Fatalf("discovered %d domains, want the %d ground-truth domains", len(listing.Domains), len(want))
	}
	for _, d := range listing.Domains {
		if !want[strings.Join(d.Forms, ",")] {
			t.Errorf("discovered domain %s (forms %v) matches no ground-truth domain", d.ID, d.Forms)
		}
	}

	d := listing.Domains[0]
	if len(d.Clusters) == 0 {
		t.Fatalf("discovered domain %s has no clusters", d.ID)
	}
	var tr translateResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/translate",
		translateRequest{Key: d.Key, Query: map[string]string{d.Clusters[0].Name: "1"}}, &tr)
	if resp.StatusCode != http.StatusOK || len(tr.SubQueries) == 0 {
		t.Errorf("translate against discovered domain %s: status %d, %d subqueries", d.ID, resp.StatusCode, len(tr.SubQueries))
	}

	// Every ingest reached the engine, every re-ingest was absorbed as a
	// duplicate, and nothing was evicted.
	dups := (len(stream) + 1) / 2
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	dm := snap.Discovery
	if dm.Ingested != uint64(len(stream)+dups) || dm.Duplicates != uint64(dups) {
		t.Errorf("discovery ingested %d (%d duplicates), want %d (%d)", dm.Ingested, dm.Duplicates, len(stream)+dups, dups)
	}
	if dm.Created+dm.Merged < uint64(len(want)) || dm.Evicted != 0 || dm.Active != len(want) || dm.Forms != len(stream) {
		t.Errorf("discovery metrics %+v, want %d live domains over %d forms and no eviction", dm, len(want), len(stream))
	}
}

// TestIngestTTLEvictionMidStream advances a fake clock between ingests:
// the idle domain is evicted (and its forms forgotten) while the fresh
// one survives, and re-ingesting an evicted form rediscovers the domain.
func TestIngestTTLEvictionMidStream(t *testing.T) {
	s, ts := newTestServer(t, Config{Lexicon: ingestLexicon(), DiscoverTTL: time.Minute})
	clock := time.Unix(0, 0)
	var mu sync.Mutex
	s.discoverNow = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		mu.Lock()
		clock = clock.Add(d)
		mu.Unlock()
	}

	first := ingestSource(t, ts.URL, ingestTree("flights-a", "Passenger", "Destination"))
	advance(30 * time.Second)
	ingestSource(t, ts.URL, ingestTree("books-a", "Author", "Title"))
	advance(31 * time.Second)

	// flights is now 61s idle and gone; books (31s) survives.
	var listing discoveredResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered", nil, &listing)
	if len(listing.Domains) != 1 {
		t.Fatalf("after TTL: %d domains, want 1", len(listing.Domains))
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered/"+first.Assignments[0].Domain, nil, &errorEnvelope{}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("evicted domain lookup: status %d, want 404", resp.StatusCode)
	}

	// Eviction forgot the form: re-ingesting rediscovers, not duplicates.
	again := ingestSource(t, ts.URL, ingestTree("flights-a", "Passenger", "Destination"))
	aa := again.Assignments[0]
	if !aa.New || aa.Duplicate {
		t.Fatalf("re-ingest after eviction: %+v, want new domain", again)
	}
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	if snap.Discovery.Evicted != 1 || snap.Discovery.Active != 2 {
		t.Fatalf("discovery metrics %+v, want 1 evicted / 2 active", snap.Discovery)
	}
}

// TestIngestErrors pins the error envelopes: 400s for malformed or empty
// requests and invalid trees, 413 for an oversized body.
func TestIngestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Lexicon: ingestLexicon(), MaxBodyBytes: 2048})
	cases := []struct {
		name   string
		body   any
		status int
		code   string
	}{
		{"empty request", ingestRequest{}, http.StatusBadRequest, codeBadRequest},
		{"both html and source", ingestRequest{HTML: "<form></form>", Source: ingestTree("x", "A")}, http.StatusBadRequest, codeBadRequest},
		{"formless html", ingestRequest{HTML: "<p>no forms here</p>"}, http.StatusBadRequest, codeBadRequest},
		{"invalid tree", ingestRequest{Source: ingestTree("", "A")}, http.StatusBadRequest, codeBadRequest},
		{"oversized body", ingestRequest{HTML: "<form>" + strings.Repeat("x", 4096) + "</form>"}, http.StatusRequestEntityTooLarge, codeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var envelope errorEnvelope
			resp := doJSON(t, http.MethodPost, ts.URL+"/v1/ingest", tc.body, &envelope)
			if resp.StatusCode != tc.status || envelope.Error.Code != tc.code {
				t.Fatalf("got status %d code %q, want %d %q",
					resp.StatusCode, envelope.Error.Code, tc.status, tc.code)
			}
		})
	}

	// Errors must not create discovery state.
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	if snap.Discovery.Ingested != 0 || snap.Discovery.Active != 0 {
		t.Fatalf("errors left discovery state: %+v", snap.Discovery)
	}
}

// TestIngestMergePublishesMergedDomain bridges two discovered domains and
// checks the merged integration is published for translate.
func TestIngestMergePublishesMergedDomain(t *testing.T) {
	_, ts := newTestServer(t, Config{Lexicon: ingestLexicon()})
	ingestSource(t, ts.URL, ingestTree("flights-a", "Passenger", "Destination"))
	ingestSource(t, ts.URL, ingestTree("books-a", "Author", "Title"))

	bridge := ingestSource(t, ts.URL, ingestTree("bridge", "Traveler", "Destination", "Writer", "Title"))
	ba := bridge.Assignments[0]
	if len(ba.Merged) != 2 || bridge.Domains != 1 || ba.Sources != 3 {
		t.Fatalf("bridge: %+v, want merge of both domains", bridge)
	}
	var tr translateResponse
	var listing discoveredResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/domains/discovered", nil, &listing)
	if len(listing.Domains) != 1 || listing.Domains[0].Key != ba.Key {
		t.Fatalf("listing after merge: %+v", listing)
	}
	cluster := listing.Domains[0].Clusters[0].Name
	if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/translate",
		translateRequest{Key: ba.Key, Query: map[string]string{cluster: "1"}}, &tr); resp.StatusCode != http.StatusOK {
		t.Fatalf("translate against merged key: status %d", resp.StatusCode)
	}
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	if snap.Discovery.Merged != 2 || snap.Discovery.Active != 1 {
		t.Fatalf("discovery metrics %+v, want 2 merged / 1 active", snap.Discovery)
	}
}
