package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"qilabel"
)

// tenantLexicon builds tenant i's knowledge base: the default facts plus
// a synonym set that CONFLICTS with every other tenant's (the same words
// mapped to different synonyms), so the versions are pairwise distinct
// and a shared cache entry would be semantically wrong.
func tenantLexicon(i int) *qilabel.Lexicon {
	l := qilabel.DefaultLexicon().Clone()
	l.AddSynonyms("from", fmt.Sprintf("origin%02d", i))
	l.AddSynonyms("adult", fmt.Sprintf("grownup%02d", i))
	return l
}

// putLexiconBody registers body under PUT /v1/lexicons[/{name}].
func putLexiconBody(t *testing.T, baseURL, name string, body []byte) (lexiconPutResponse, *http.Response) {
	t.Helper()
	url := baseURL + "/v1/lexicons"
	if name != "" {
		url += "/" + name
	}
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var out lexiconPutResponse
	if resp.StatusCode == http.StatusOK {
		decodeBody(t, resp, &out)
	}
	return out, resp
}

// semanticBody reduces an integrate response to its pipeline outcome —
// everything except the cache-routing fields (Key embeds the lexicon
// fingerprint and Cached/Coalesced depend on timing), rendered as
// canonical JSON for byte-level comparison.
func semanticBody(resp integrateResponse) (string, error) {
	data, err := json.Marshal(struct {
		Class  string            `json:"class"`
		Labels map[string]string `json:"labels"`
		Tree   *qilabel.Tree     `json:"tree"`
		Text   string            `json:"text"`
		Report reportJSON        `json:"report"`
		Rules  map[string]int    `json:"rules"`
	}{resp.Class, resp.Labels, resp.Tree, resp.Text, resp.Report, resp.Rules})
	return string(data), err
}

// dedicatedRun integrates the fixtures on a throwaway single-tenant
// server configured with lex as its only lexicon — the isolation
// reference: what the tenant would get with nobody else around.
func dedicatedRun(t *testing.T, lex *qilabel.Lexicon) string {
	t.Helper()
	_, ts := newTestServer(t, Config{Lexicon: lex})
	var out integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: fixtureSources()}), &out)
	body, err := semanticBody(out)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func artifactOf(t *testing.T, lex *qilabel.Lexicon) []byte {
	t.Helper()
	data, err := lex.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestLexiconEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// The empty registry serves exactly the embedded default.
	var list lexiconListResponse
	resp, err := http.Get(ts.URL + "/v1/lexicons")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &list)
	if len(list.Lexicons) != 1 || !list.Lexicons[0].Default {
		t.Fatalf("fresh listing = %+v", list)
	}
	if list.Default != s.defaultLexiconID() || list.Lexicons[0].ID != list.Default {
		t.Fatalf("default id mismatch: %+v", list)
	}

	// Register by content, then bind an alias; both spellings resolve.
	lex := tenantLexicon(1)
	put, _ := putLexiconBody(t, ts.URL, "", artifactOf(t, lex))
	if put.ID != lex.VersionID() || put.Alias != "" {
		t.Fatalf("content-only put = %+v, want id %s", put, lex.VersionID())
	}
	named, _ := putLexiconBody(t, ts.URL, "tenant-a", artifactOf(t, lex))
	if named.ID != put.ID || named.Alias != "tenant-a" {
		t.Fatalf("named put = %+v", named)
	}

	// Export round-trips as a verified artifact.
	resp, err = http.Get(ts.URL + "/v1/lexicons/tenant-a")
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if _, id, err := qilabel.DecodeLexiconArtifact(body.Bytes()); err != nil || id != put.ID {
		t.Fatalf("exported artifact: id=%s err=%v", id, err)
	}

	// A name that looks like a content address must match the body.
	wrong := "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef"
	if _, resp := putLexiconBody(t, ts.URL, wrong, artifactOf(t, lex)); resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched content-address alias: status %d, want 409", resp.StatusCode)
	}
	if _, resp := putLexiconBody(t, ts.URL, "", []byte("{broken")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body: status %d, want 400", resp.StatusCode)
	}

	// Selection: alias, full id and the X-Lexicon header are one
	// namespace — the same key, so the second request is a warm hit.
	var byAlias integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: fixtureSources(), Options: requestOptions{Lexicon: "tenant-a"}}), &byAlias)
	data, _ := json.Marshal(integrateBody{Sources: fixtureSources()})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/integrate", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Lexicon", put.ID)
	hresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var byHeader integrateResponse
	decodeBody(t, hresp, &byHeader)
	if byHeader.Key != byAlias.Key || !byHeader.Cached {
		t.Fatalf("header selection: key=%s cached=%v, want warm hit on %s", byHeader.Key, byHeader.Cached, byAlias.Key)
	}

	// Spelling the default explicitly keys identically to no selection.
	var plain, byDefault integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: fixtureSources()}), &plain)
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: fixtureSources(), Options: requestOptions{Lexicon: "default"}}), &byDefault)
	if byDefault.Key != plain.Key || !byDefault.Cached {
		t.Fatalf("explicit default: key=%s cached=%v, want the unselected key %s", byDefault.Key, byDefault.Cached, plain.Key)
	}
	if plain.Key == byAlias.Key {
		t.Fatal("tenant and default share a cache key")
	}

	// Unknown selections answer 404 with guidance.
	resp = postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: fixtureSources(), Options: requestOptions{Lexicon: "nobody"}})
	var env errorEnvelope
	decodeBody(t, resp, &env)
	if resp.StatusCode != http.StatusNotFound || env.Error.Code != codeNotFound {
		t.Fatalf("unknown lexicon: status=%d code=%q", resp.StatusCode, env.Error.Code)
	}
	if resp, err := http.Get(ts.URL + "/v1/lexicons/nobody"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("export of unknown lexicon: %v / %d", err, resp.StatusCode)
	}

	// Translate guard: a key minted under tenant-a translates only with a
	// matching selection (no selection skips the guard).
	tq := map[string]string{"c_From": "Chicago"}
	resp = postJSON(t, ts.URL+"/v1/translate", translateRequest{Key: byAlias.Key, Query: tq, Lexicon: "default"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-lexicon translate: status %d, want 404", resp.StatusCode)
	}
	var tr translateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/translate", translateRequest{Key: byAlias.Key, Query: tq, Lexicon: "tenant-a"}), &tr)
	if len(tr.SubQueries) == 0 {
		t.Fatal("tenant translate returned no subqueries")
	}
}

func TestLexiconUpgradeReport(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Warm the default namespace with one integration.
	var base integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: fixtureSources()}), &base)

	next := tenantLexicon(9)
	put, _ := putLexiconBody(t, ts.URL, "vnext", artifactOf(t, next))

	var rep lexiconReportResponse
	resp, err := http.Get(ts.URL + "/v1/lexicons/report?to=vnext")
	if err != nil {
		t.Fatal(err)
	}
	decodeBody(t, resp, &rep)
	if rep.To != put.ID || rep.Identical {
		t.Fatalf("report = from %s to %s identical=%v", rep.From, rep.To, rep.Identical)
	}
	// tenantLexicon adds the {from,origin09} and {adult,grownup09}
	// synsets; synsets may overlap, so the default's {adult,grownup} is
	// untouched and nothing is removed.
	if len(rep.Diff.SynsetsAdded) != 2 || len(rep.Diff.SynsetsRemoved) != 0 {
		t.Fatalf("diff = %+v", rep.Diff)
	}
	if len(rep.CachedResults) != 1 || rep.Invalidated != 1 {
		t.Fatalf("cached results = %+v invalidated=%d, want 1 cold entry", rep.CachedResults, rep.Invalidated)
	}
	entry := rep.CachedResults[0]
	if entry.Key != base.Key || entry.NewKey == base.Key || !entry.Invalidated {
		t.Fatalf("entry = %+v (base key %s)", entry, base.Key)
	}

	// Integrating under the new version warms exactly the predicted key;
	// the report then shows nothing left to invalidate.
	var upgraded integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: fixtureSources(), Options: requestOptions{Lexicon: "vnext"}}), &upgraded)
	if upgraded.Key != entry.NewKey {
		t.Fatalf("new-version key %s, report predicted %s", upgraded.Key, entry.NewKey)
	}
	resp, err = http.Get(ts.URL + "/v1/lexicons/report?to=vnext")
	if err != nil {
		t.Fatal(err)
	}
	rep = lexiconReportResponse{}
	decodeBody(t, resp, &rep)
	if rep.Invalidated != 0 || len(rep.CachedResults) != 1 || rep.CachedResults[0].Invalidated {
		t.Fatalf("post-upgrade report still cold: %+v", rep)
	}

	// Degenerate operands.
	resp, _ = http.Get(ts.URL + "/v1/lexicons/report?from=vnext&to=vnext")
	rep = lexiconReportResponse{}
	decodeBody(t, resp, &rep)
	if !rep.Identical || len(rep.CachedResults) != 0 || !rep.Diff.Identical() {
		t.Fatalf("self-report = %+v", rep)
	}
	if resp, _ := http.Get(ts.URL + "/v1/lexicons/report"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("report without ?to=: status %d", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/lexicons/report?to=ghost"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report against unknown version: status %d", resp.StatusCode)
	}
}

// TestTenantIsolation is the pinning suite of the versioned-lexicon
// layer: N tenants with conflicting synonym sets hammer ONE server
// concurrently (run under -race), and the test asserts complete
// isolation three ways —
//
//  1. every response is byte-identical to the tenant's dedicated
//     single-tenant run (no cross-tenant result bleed);
//  2. the per-lexicon /metrics columns show the exact expected deltas:
//     every tenant paid exactly ONE pipeline computation, so no tenant
//     ever hit another tenant's cache entry;
//  3. the shared LRU holds exactly one entry per tenant, all keys
//     pairwise distinct.
func TestTenantIsolation(t *testing.T) {
	const (
		tenants    = 4
		goroutines = 4 // per tenant
		perG       = 5 // requests per goroutine
	)
	s, ts := newTestServer(t, Config{MaxInflight: 32})

	ids := make([]string, tenants)
	want := make([]string, tenants)
	for i := 0; i < tenants; i++ {
		lex := tenantLexicon(i)
		put, resp := putLexiconBody(t, ts.URL, fmt.Sprintf("tenant-%d", i), artifactOf(t, lex))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("registering tenant %d: status %d", i, resp.StatusCode)
		}
		ids[i] = put.ID
		want[i] = dedicatedRun(t, lex)
	}
	for i := 0; i < tenants; i++ {
		for j := i + 1; j < tenants; j++ {
			if ids[i] == ids[j] {
				t.Fatalf("tenants %d and %d share a version id %s", i, j, ids[i])
			}
		}
	}

	// The hammer: all tenants at once, alias and header spellings mixed.
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		keys = make([]map[string]bool, tenants)
	)
	for i := range keys {
		keys[i] = make(map[string]bool)
	}
	errs := make(chan error, tenants*goroutines*perG)
	for tn := 0; tn < tenants; tn++ {
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(tn, g int) {
				defer wg.Done()
				for k := 0; k < perG; k++ {
					var resp *http.Response
					var err error
					if (g+k)%2 == 0 {
						resp, err = tryPostJSON(ts.URL+"/v1/integrate", integrateBody{
							Sources: fixtureSources(),
							Options: requestOptions{Lexicon: fmt.Sprintf("tenant-%d", tn)},
						})
					} else {
						data, _ := json.Marshal(integrateBody{Sources: fixtureSources()})
						req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/integrate", bytes.NewReader(data))
						req.Header.Set("Content-Type", "application/json")
						req.Header.Set("X-Lexicon", ids[tn])
						resp, err = http.DefaultClient.Do(req)
					}
					if err != nil {
						errs <- fmt.Errorf("tenant %d: %w", tn, err)
						continue
					}
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("tenant %d: status %d", tn, resp.StatusCode)
						resp.Body.Close()
						continue
					}
					var out integrateResponse
					if err := tryDecodeBody(resp, &out); err != nil {
						errs <- fmt.Errorf("tenant %d: %w", tn, err)
						continue
					}
					if got, err := semanticBody(out); err != nil || got != want[tn] {
						errs <- fmt.Errorf("tenant %d: response diverges from its dedicated run (%v)", tn, err)
					}
					mu.Lock()
					keys[tn][out.Key] = true
					mu.Unlock()
				}
			}(tn, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// One key per tenant, pairwise distinct, one LRU entry each.
	all := make(map[string]int)
	for tn, ks := range keys {
		if len(ks) != 1 {
			t.Errorf("tenant %d produced %d distinct keys, want 1", tn, len(ks))
		}
		for k := range ks {
			if prev, dup := all[k]; dup {
				t.Errorf("tenants %d and %d share cache key %s", prev, tn, k)
			}
			all[k] = tn
		}
	}
	if s.cache.Len() != tenants {
		t.Errorf("cache holds %d entries, want exactly %d (one per tenant)", s.cache.Len(), tenants)
	}

	// Exact per-lexicon metric deltas: requests all accounted for, and
	// exactly one miss (= one pipeline computation) per tenant — zero
	// cross-tenant cache hits, observable straight off /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	decodeBody(t, resp, &snap)
	const perTenant = goroutines * perG
	for tn, id := range ids {
		col, ok := snap.Lexicons.PerLexicon[id]
		if !ok {
			t.Errorf("tenant %d (%s) has no metrics column", tn, id)
			continue
		}
		if col.Requests != perTenant {
			t.Errorf("tenant %d: requests = %d, want %d", tn, col.Requests, perTenant)
		}
		if col.CacheMisses != 1 {
			t.Errorf("tenant %d: misses = %d, want exactly 1", tn, col.CacheMisses)
		}
		if col.CacheHits+col.Coalesced != perTenant-1 {
			t.Errorf("tenant %d: hits(%d)+coalesced(%d) != %d", tn, col.CacheHits, col.Coalesced, perTenant-1)
		}
	}
	if _, ok := snap.Lexicons.PerLexicon[qilabel.DefaultLexiconAlias]; ok {
		t.Error("default column exists though no request ran on the default lexicon")
	}
	if snap.Lexicons.Versions != tenants+1 {
		t.Errorf("registry holds %d versions, want %d tenants + default", snap.Lexicons.Versions, tenants)
	}
}

// TestLexiconHotReloadUnderTraffic swaps a lexicon version mid-flight
// while 32 goroutines stream integrate, session and ingest traffic
// against its alias (run under -race). Pinned by the immutability of
// registered versions:
//
//   - no request fails across the swap, and every integration result is
//     exactly the old or the new version's (never a blend);
//   - a session created before the swap stays pinned to the old version
//     for its whole life, while sessions created after run on the new;
//   - the warm caches never reset: hot reload registers NEW versions
//     instead of mutating (Generation() never bumps), so epochResets
//     stays zero — the "exactly once per Generation bump" contract with
//     zero bumps.
func TestLexiconHotReloadUnderTraffic(t *testing.T) {
	lexA, lexB := tenantLexicon(20), tenantLexicon(21)
	wantA, wantB := dedicatedRun(t, lexA), dedicatedRun(t, lexB)

	dir := t.TempDir()
	file := filepath.Join(dir, "tenant.json")
	if err := os.WriteFile(file, artifactOf(t, lexA), 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{MaxInflight: 64})
	if n, err := s.LoadLexiconDir(dir); n != 1 || err != nil {
		t.Fatalf("LoadLexiconDir = %d, %v", n, err)
	}

	// A session created before the swap pins version A for life.
	var pinned sessionCreateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/sessions",
		sessionCreateRequest{Options: requestOptions{Lexicon: "tenant"}}), &pinned)

	// The traffic helpers run on worker goroutines, so they return their
	// failures instead of failing t.
	integrateOnce := func(g, k int) (string, error) {
		resp, err := tryPostJSON(ts.URL+"/v1/integrate", integrateBody{
			Sources: fixtureSources(),
			Options: requestOptions{Lexicon: "tenant"},
		})
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return "", fmt.Errorf("goroutine %d op %d: status %d", g, k, resp.StatusCode)
		}
		var out integrateResponse
		if err := tryDecodeBody(resp, &out); err != nil {
			return "", err
		}
		return semanticBody(out)
	}

	sessionOnce := func(g, k int) (string, error) {
		resp, err := tryPostJSON(ts.URL+"/v1/sessions",
			sessionCreateRequest{Options: requestOptions{Lexicon: "tenant"}})
		if err != nil {
			return "", err
		}
		var created sessionCreateResponse
		if err := tryDecodeBody(resp, &created); err != nil {
			return "", err
		}
		for _, src := range fixtureSources() {
			resp, err := tryPostJSON(ts.URL+"/v1/sessions/"+created.ID+"/sources", sessionSourceRequest{Source: src})
			if err != nil {
				return "", err
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				return "", fmt.Errorf("goroutine %d op %d: session add status %d", g, k, resp.StatusCode)
			}
			resp.Body.Close()
		}
		resp, err = http.Get(ts.URL + "/v1/sessions/" + created.ID + "/result")
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return "", fmt.Errorf("goroutine %d op %d: session result status %d", g, k, resp.StatusCode)
		}
		var out integrateResponse
		if err := tryDecodeBody(resp, &out); err != nil {
			return "", err
		}
		return semanticBody(out)
	}

	ingestOnce := func(g, k int) error {
		resp, err := tryPostJSON(ts.URL+"/v1/ingest",
			ingestRequest{Source: fixtureSources()[g%3], Lexicon: "tenant"})
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("goroutine %d op %d: ingest status %d", g, k, resp.StatusCode)
		}
		return nil
	}

	// Deterministic pre-swap traffic: version A serves at least once, so
	// its /metrics column exists whatever the swap race below does.
	if got, err := integrateOnce(-2, -2); err != nil || got != wantA {
		t.Fatalf("pre-swap traffic: err=%v, matches old version: %v", err, got == wantA)
	}

	const goroutines, perG = 32, 4
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines*perG)
	bodies := make(chan string, goroutines*perG)
	swap := make(chan struct{}) // closed after the reload completes
	artB := artifactOf(t, lexB)
	wg.Add(1)
	go func() { // the swapper, concurrent with the traffic
		defer wg.Done()
		if err := os.WriteFile(file, artB, 0o644); err != nil {
			errCh <- err
		}
		if _, err := s.ReloadLexicons(); err != nil {
			errCh <- fmt.Errorf("hot reload: %w", err)
		}
		close(swap)
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				var body string
				var err error
				switch g % 3 {
				case 0:
					body, err = integrateOnce(g, k)
				case 1:
					body, err = sessionOnce(g, k)
				default:
					err = ingestOnce(g, k)
				}
				if err != nil {
					errCh <- err
				} else if body != "" {
					bodies <- body
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	close(bodies)
	for err := range errCh {
		t.Error(err)
	}
	for body := range bodies {
		if body != wantA && body != wantB {
			t.Error("a mid-swap response matches neither version's dedicated run")
		}
	}

	// After the swap the alias serves B...
	<-swap
	if got, err := integrateOnce(-1, -1); err != nil || got != wantB {
		t.Fatalf("post-reload alias traffic: err=%v, matches new version: %v", err, got == wantB)
	}
	// ...while the pre-swap session still answers with A: its lexicon
	// resolved at creation and registered versions are immutable.
	for _, src := range fixtureSources() {
		resp := postJSON(t, ts.URL+"/v1/sessions/"+pinned.ID+"/sources", sessionSourceRequest{Source: src})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("pinned session add: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/v1/sessions/" + pinned.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var pinnedOut integrateResponse
	decodeBody(t, resp, &pinnedOut)
	if got, err := semanticBody(pinnedOut); err != nil || got != wantA {
		t.Fatal("session created before the swap no longer runs on its pinned version")
	}
	var fresh sessionCreateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/sessions",
		sessionCreateRequest{Options: requestOptions{Lexicon: "tenant"}}), &fresh)
	if fresh.Fingerprint == pinned.Fingerprint {
		t.Fatal("a session created after the swap shares the pinned session's fingerprint")
	}

	// Both versions live side by side; the warm caches never reset.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap snapshot
	decodeBody(t, mresp, &snap)
	if snap.Warm.EpochResets != 0 {
		t.Errorf("hot reload reset warm caches %d times; immutable versions must never bump Generation", snap.Warm.EpochResets)
	}
	if snap.Lexicons.Versions != 3 { // default + A + B
		t.Errorf("registry holds %d versions after the swap, want 3", snap.Lexicons.Versions)
	}
	if snap.Lexicons.Reloads < 1 {
		t.Errorf("reload counter = %d, want >= 1", snap.Lexicons.Reloads)
	}
	if _, ok := snap.Lexicons.PerLexicon[lexA.VersionID()]; !ok {
		t.Error("no traffic column for the pre-swap version")
	}
	if _, ok := snap.Lexicons.PerLexicon[lexB.VersionID()]; !ok {
		t.Error("no traffic column for the post-swap version")
	}
}
