package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"qilabel"
)

// doJSON issues a request with an arbitrary method and decodes the reply.
func doJSON(t *testing.T, method, url string, body any, out any) *http.Response {
	t.Helper()
	resp, err := tryDoJSON(method, url, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// tryDoJSON is doJSON returning its failure instead of failing the test,
// for goroutines other than the test's own.
func tryDoJSON(method, url string, body any, out any) (*http.Response, error) {
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if out == nil {
		resp.Body.Close()
		return resp, nil
	}
	return resp, tryDecodeBody(resp, out)
}

func createSession(t *testing.T, url string, opts requestOptions) sessionCreateResponse {
	t.Helper()
	var out sessionCreateResponse
	resp := doJSON(t, http.MethodPost, url+"/v1/sessions", sessionCreateRequest{Options: opts}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("create session: status %d", resp.StatusCode)
	}
	if out.ID == "" || out.Fingerprint == "" {
		t.Fatalf("bad create response: %+v", out)
	}
	return out
}

// TestSessionLifecycleHTTP drives a session through adds, a result read,
// an update, a remove and a close, pinning the equivalence with
// /v1/integrate, the translate interop and every sessions metric the
// /metrics endpoint exposes.
func TestSessionLifecycleHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	sources := fixtureSources()
	created := createSession(t, ts.URL, requestOptions{})

	// Add each source, asserting hash/count bookkeeping per delta.
	var ops []sessionOpResponse
	for i, src := range sources {
		var op sessionOpResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
			sessionSourceRequest{Source: src}, &op)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("add source %d: status %d", i, resp.StatusCode)
		}
		if op.Hash == "" || op.Sources != i+1 || op.Key == "" {
			t.Fatalf("bad add response: %+v", op)
		}
		if op.Stats.Op != "add" || op.Stats.Components == 0 {
			t.Fatalf("bad add stats: %+v", op.Stats)
		}
		ops = append(ops, op)
	}

	// The session result must byte-match a from-scratch /v1/integrate of
	// the same source set (modulo the Cached flag), and arrive under the
	// same cache key.
	var got integrateResponse
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/result", nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var want integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: sources}), &want)
	if !want.Cached {
		t.Fatal("integrate after session result was not a cache hit — keys diverge")
	}
	if got.Key != want.Key {
		t.Fatalf("session key %s != integrate key %s", got.Key, want.Key)
	}
	gj, _ := json.Marshal(got)
	want.Cached = false
	wj, _ := json.Marshal(want)
	if string(gj) != string(wj) {
		t.Fatalf("session result != integrate result\nsession: %s\nintegrate: %s", gj, wj)
	}

	// Translate interop: the session's key resolves in the result cache.
	var tr translateResponse
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/translate",
		translateRequest{Key: got.Key, Query: map[string]string{"c_Adult": "2"}}, &tr)
	if resp.StatusCode != http.StatusOK || len(tr.SubQueries) == 0 {
		t.Fatalf("translate against session key: status %d, %+v", resp.StatusCode, tr)
	}

	// Update source 0 to a relabeled variant, then remove the last source.
	variant := qilabel.NewTree("aa",
		qilabel.NewGroup("Travellers",
			qilabel.NewField("Adults", "c_Adult"),
			qilabel.NewField("Children", "c_Child"),
		),
		qilabel.NewField("From", "c_From"),
		qilabel.NewField("To", "c_To"),
	)
	var up sessionOpResponse
	if resp := doJSON(t, http.MethodPut, ts.URL+"/v1/sessions/"+created.ID+"/sources/"+ops[0].Hash,
		sessionSourceRequest{Source: variant}, &up); resp.StatusCode != http.StatusOK {
		t.Fatalf("update: status %d", resp.StatusCode)
	}
	if up.Stats.Op != "update" || up.Hash == ops[0].Hash || up.Sources != len(sources) {
		t.Fatalf("bad update response: %+v", up)
	}
	var rm sessionOpResponse
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID+"/sources/"+ops[2].Hash, nil, &rm); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", resp.StatusCode)
	}
	if rm.Stats.Op != "remove" || rm.Sources != len(sources)-1 {
		t.Fatalf("bad remove response: %+v", rm)
	}

	// Info reflects the source multiset and lifetime totals.
	var info sessionInfoResponse
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, &info)
	if len(info.Sources) != 2 || info.Totals.Ops != 5 || info.Totals.Adds != 3 ||
		info.Totals.Updates != 1 || info.Totals.Removes != 1 {
		t.Fatalf("bad info: %+v", info)
	}

	// The /metrics sessions section pins every counter.
	var m snapshot
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	sm := m.Sessions
	if sm.Active != 1 || sm.Created != 1 || sm.Closed != 0 || sm.Evicted != 0 {
		t.Fatalf("bad session gauges: %+v", sm)
	}
	if sm.DeltaOps["add"] != 3 || sm.DeltaOps["update"] != 1 || sm.DeltaOps["remove"] != 1 {
		t.Fatalf("bad delta op counters: %+v", sm.DeltaOps)
	}
	// Every delta ran the pipeline once, timed under /metrics stages like
	// an integration; the /v1/integrate above was a cache hit.
	for _, stage := range []string{"validate", "merge", "naming"} {
		if n := m.Stages[stage].Count; n != 5 {
			t.Fatalf("stage %s ran %d times over 5 deltas: %+v", stage, n, m.Stages)
		}
	}

	// Close; the id is gone and the gauge drops.
	if resp := doJSON(t, http.MethodDelete, ts.URL+"/v1/sessions/"+created.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("close: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("closed session still resolves: status %d", resp.StatusCode)
	}
	doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &m)
	if m.Sessions.Active != 0 || m.Sessions.Closed != 1 {
		t.Fatalf("bad gauges after close: %+v", m.Sessions)
	}
	_ = s
}

// TestSessionErrors exercises the error envelope: unknown ids, unknown
// hashes, empty-session results and malformed bodies.
func TestSessionErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, requestOptions{})

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		status int
		code   string
	}{
		{"unknown id", http.MethodGet, "/v1/sessions/nope/result", nil, 404, codeNotFound},
		{"unknown id op", http.MethodPost, "/v1/sessions/nope/sources", sessionSourceRequest{Source: fixtureSources()[0]}, 404, codeNotFound},
		{"empty result", http.MethodGet, "/v1/sessions/" + created.ID + "/result", nil, 409, codeBadRequest},
		{"missing source", http.MethodPost, "/v1/sessions/" + created.ID + "/sources", sessionSourceRequest{}, 400, codeBadRequest},
		{"unknown hash remove", http.MethodDelete, "/v1/sessions/" + created.ID + "/sources/deadbeef", nil, 404, codeNotFound},
		{"unknown hash update", http.MethodPut, "/v1/sessions/" + created.ID + "/sources/deadbeef", sessionSourceRequest{Source: fixtureSources()[0]}, 404, codeNotFound},
		{"unknown session close", http.MethodDelete, "/v1/sessions/nope", nil, 404, codeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var env errorEnvelope
			resp := doJSON(t, tc.method, ts.URL+tc.path, tc.body, &env)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			if env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q", env.Error.Code, tc.code)
			}
		})
	}
}

// TestSessionTTLEviction pins the idle-TTL sweep with a fake clock.
func TestSessionTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute})
	now := time.Now()
	s.sessions.now = func() time.Time { return now }

	created := createSession(t, ts.URL, requestOptions{})
	if got := s.sessions.active(); got != 1 {
		t.Fatalf("active = %d, want 1", got)
	}

	// Touch inside the horizon: survives.
	now = now.Add(50 * time.Second)
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("session evicted before its TTL: %d", resp.StatusCode)
	}

	// Idle past the horizon: evicted, 404s, counted.
	now = now.Add(61 * time.Second)
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session still resolves: %d", resp.StatusCode)
	}
	if got := s.metrics.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
}

// TestSessionCapEviction pins the LRU-cap eviction on create.
func TestSessionCapEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	now := time.Now()
	s.sessions.now = func() time.Time { return now }

	a := createSession(t, ts.URL, requestOptions{})
	now = now.Add(time.Second)
	b := createSession(t, ts.URL, requestOptions{})
	now = now.Add(time.Second)
	// Touch a so b becomes the LRU victim.
	doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+a.ID, nil, nil)
	now = now.Add(time.Second)
	c := createSession(t, ts.URL, requestOptions{})

	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+a.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("recently used session was evicted: %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+b.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("LRU session survived the cap: %d", resp.StatusCode)
	}
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+c.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("new session missing: %d", resp.StatusCode)
	}
	if got := s.metrics.sessionsEvicted.Load(); got != 1 {
		t.Fatalf("evicted counter = %d, want 1", got)
	}
}

// TestSessionMatcherDeltaReuse drives a matcher session and checks that
// its runs answer Relate verdicts from the Integrator's warm cache, as
// /metrics reports it, and that its result is the one-shot integration's.
func TestSessionMatcherDeltaReuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	created := createSession(t, ts.URL, requestOptions{Matcher: true})

	unannotated := []*qilabel.Tree{
		qilabel.NewTree("s1",
			qilabel.NewField("From City", "", "Boston", "Denver"),
			qilabel.NewField("To City", "", "Chicago", "Austin"),
		),
		qilabel.NewTree("s2",
			qilabel.NewField("Departure City", "", "Boston", "Denver"),
			qilabel.NewField("Destination City", "", "Chicago", "Austin"),
		),
		qilabel.NewTree("s3",
			qilabel.NewField("From City", "", "Boston", "Denver", "Seattle"),
			qilabel.NewField("To City", "", "Chicago", "Austin", "Memphis"),
		),
	}
	var last sessionOpResponse
	for _, src := range unannotated {
		if resp := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
			sessionSourceRequest{Source: src}, &last); resp.StatusCode != http.StatusOK {
			t.Fatalf("add: status %d", resp.StatusCode)
		}
	}
	if last.Stats.PairsEvaluated == 0 {
		t.Fatalf("matcher session evaluated no pair: %+v", last.Stats)
	}
	var snap snapshot
	decodeBody(t, mustGet(t, ts.URL+"/metrics"), &snap)
	if snap.Warm.VerdictHits == 0 {
		t.Fatalf("matcher session shows no verdict reuse: %+v", snap.Warm)
	}
	var got integrateResponse
	if resp := doJSON(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/result", nil, &got); resp.StatusCode != http.StatusOK {
		t.Fatalf("result: status %d", resp.StatusCode)
	}
	var want integrateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/integrate",
		integrateBody{Sources: unannotated, Options: requestOptions{Matcher: true}}), &want)
	if got.Key != want.Key || !want.Cached {
		t.Fatalf("matcher session key mismatch: session %s integrate %s (cached=%v)", got.Key, want.Key, want.Cached)
	}
}

// TestSessionConcurrentDeltaReplies: concurrent adds to one session each
// answer with their own state — the source count, the stats and the key
// of the state the add produced.
func TestSessionConcurrentDeltaReplies(t *testing.T) {
	const n = 8
	_, ts := newTestServer(t, Config{MaxInflight: n})
	created := createSession(t, ts.URL, requestOptions{Matcher: true})
	replies := make([]sessionOpResponse, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := qilabel.NewTree(fmt.Sprintf("s%d", i),
				qilabel.NewField("From City", ""), qilabel.NewField("To City", ""))
			resp, err := tryDoJSON(http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
				sessionSourceRequest{Source: src}, &replies[i])
			if err == nil && resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("add %d: status %d", i, resp.StatusCode)
			}
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[int]bool)
	keys := make(map[string]bool)
	for _, r := range replies {
		if r.Stats.Sources != r.Sources {
			t.Fatalf("reply with %d sources carries stats of %d: %+v", r.Sources, r.Stats.Sources, r)
		}
		seen[r.Sources] = true
		keys[r.Key] = true
	}
	for k := 1; k <= n; k++ {
		if !seen[k] {
			t.Fatalf("no reply answered with %d sources: %+v", k, replies)
		}
	}
	if len(keys) != n {
		t.Fatalf("%d distinct keys over %d distinct states", len(keys), n)
	}
}

// TestStageMetricsCoverDeltasAndIngests: /metrics stages.naming.count
// rises by one per session delta that leaves the session non-empty and
// per ingest that changes a domain, and by nothing otherwise.
func TestStageMetricsCoverDeltasAndIngests(t *testing.T) {
	_, ts := newTestServer(t, Config{Lexicon: ingestLexicon()})
	namings := func() int64 {
		var m snapshot
		decodeBody(t, mustGet(t, ts.URL+"/metrics"), &m)
		return m.Stages["naming"].Count
	}
	step := func(what string, want int64, do func()) {
		t.Helper()
		before := namings()
		do()
		if got := namings() - before; got != want {
			t.Fatalf("%s: naming ran %d times, want %d", what, got, want)
		}
	}

	created := createSession(t, ts.URL, requestOptions{Matcher: true})
	var added sessionOpResponse
	delta := func(method, path string, body any) {
		t.Helper()
		if resp := doJSON(t, method, ts.URL+"/v1/sessions/"+created.ID+path, body, &added); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d", method, path, resp.StatusCode)
		}
	}
	step("add", 1, func() {
		delta(http.MethodPost, "/sources", sessionSourceRequest{Source: ingestTree("a", "Passenger", "Destination")})
	})
	first := added.Hash
	step("second add", 1, func() {
		delta(http.MethodPost, "/sources", sessionSourceRequest{Source: ingestTree("b", "Traveler", "Place")})
	})
	second := added.Hash
	step("update", 1, func() {
		delta(http.MethodPut, "/sources/"+second, sessionSourceRequest{Source: ingestTree("c", "Occupant", "Place")})
	})
	step("remove", 1, func() { delta(http.MethodDelete, "/sources/"+first, nil) })
	step("remove emptying the session", 0, func() { delta(http.MethodDelete, "/sources/"+added.Hash, nil) })
	step("info read", 0, func() { mustGet(t, ts.URL+"/v1/sessions/"+created.ID).Body.Close() })

	step("founding ingest", 1, func() { ingestSource(t, ts.URL, ingestTree("flights-a", "Passenger", "Destination")) })
	step("joining ingest", 1, func() { ingestSource(t, ts.URL, ingestTree("flights-b", "Traveler", "Place")) })
	step("duplicate ingest", 0, func() { ingestSource(t, ts.URL, ingestTree("flights-a", "Passenger", "Destination")) })
	step("second domain", 1, func() { ingestSource(t, ts.URL, ingestTree("books-a", "Author", "Title")) })
	step("bridging ingest", 1, func() {
		ingestSource(t, ts.URL, ingestTree("bridge", "Traveler", "Destination", "Writer", "Title"))
	})
}
