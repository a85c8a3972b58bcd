package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"qilabel"
	"qilabel/internal/synth"
)

// structResponse is the response struct the server encoded on every reply
// while cache entries kept the pipeline's result: the result's class,
// labels, tree and rule counters, and the report computed over the
// request's own sources.
func structResponse(key, domain string, sources []*qilabel.Tree, res *qilabel.Result) integrateResponse {
	rep := res.Report(domain, sources)
	resp := integrateResponse{
		Key:    key,
		Class:  res.Class.String(),
		Labels: res.Labels,
		Tree:   res.Tree,
		Text:   res.Tree.String(),
		Report: reportJSON{
			Domain:      rep.Domain,
			FldAcc:      rep.FldAcc,
			IntAcc:      rep.IntAcc,
			HA:          rep.HA,
			HAPrime:     rep.HAPrime,
			IntLeaves:   rep.IntLeaves,
			IntInternal: rep.IntInternal,
			IntDepth:    rep.IntDepth,
		},
		Rules: make(map[string]int),
	}
	for li := 1; li <= 7; li++ {
		resp.Rules[fmt.Sprintf("li%d", li)] = res.Naming.Counters.LI[li]
	}
	return resp
}

// indented encodes v as writeJSON does.
func indented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// structReply is the body writeJSON wrote for resp with the given flags.
func structReply(t *testing.T, resp integrateResponse, cached, coalesced bool) []byte {
	resp.Cached, resp.Coalesced = cached, coalesced
	return indented(t, resp)
}

// structTranslateReply is the /v1/translate body for subs.
func structTranslateReply(t *testing.T, key string, subs []qilabel.SubQuery) []byte {
	resp := translateResponse{Key: key}
	for _, sub := range subs {
		sj := subQueryJSON{Interface: sub.Interface, Assignments: []assignmentJSON{}, Unsupported: sub.Unsupported}
		for _, a := range sub.Assignments {
			sj.Assignments = append(sj.Assignments, assignmentJSON{
				Label: a.Label, Clusters: a.Clusters, Value: a.Value, Approximate: a.Approximate,
			})
		}
		resp.SubQueries = append(resp.SubQueries, sj)
	}
	return indented(t, resp)
}

// send makes one request and returns its status and body.
func send(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// expectBody fails unless a request answered 200 with exactly want.
func expectBody(t *testing.T, what string, status int, got, want []byte) {
	t.Helper()
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("%s: status %d, body differs from the struct encoding:\n%s\nwant\n%s", what, status, got, want)
	}
}

// TestRepliesMatchStructEncoding pins every reply written from a cache
// entry's bytes to the encoding the server produced when entries kept the
// pipeline's result: computed, hit and coalesced /v1/integrate replies
// (builtin domain, annotated sources, options, the matcher on a synth
// corpus), batch lines, session /result replies, the responses a cache
// snapshot persists, hits after the snapshot (with testdata/snapshot_v1.json
// among its entries) is loaded into another server, and translations
// before and after that load.
func TestRepliesMatchStructEncoding(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var armed atomic.Bool
	unblock, release := holdHook(t)
	s.testHookSlow = func() {
		if armed.Load() {
			<-unblock
		}
	}
	ctx := context.Background()

	// expected maps every cached key to its response struct and to an
	// integrate body that names it.
	type expectation struct {
		resp    integrateResponse
		body    []byte
		sources []*qilabel.Tree
		ropts   requestOptions
	}
	expected := make(map[string]expectation)
	expect := func(req integrateBody) (string, expectation) {
		t.Helper()
		sources := req.Sources
		if req.Domain != "" {
			var err error
			if sources, err = qilabel.BuiltinDomain(req.Domain); err != nil {
				t.Fatal(err)
			}
		}
		ig, err := s.integrator(req.Options)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ig.IntegrateContext(ctx, sources)
		if err != nil {
			t.Fatal(err)
		}
		key := ig.CacheKey(sources)
		e := expectation{structResponse(key, req.Domain, sources, res), mustJSON(t, req), sources, req.Options}
		expected[key] = e
		return key, e
	}

	cfg, err := synth.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	medium, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		req  integrateBody
	}{
		{"builtin domain", integrateBody{Domain: "Airline"}},
		{"annotated sources", integrateBody{Sources: fixtureSources()}},
		{"options", integrateBody{Sources: fixtureSources(), Options: requestOptions{MinFrequency: 2, NoInstances: true}}},
		{"matcher on a synth corpus", integrateBody{Sources: medium[:12], Options: requestOptions{Matcher: true}}},
	} {
		_, e := expect(c.req)
		status, got := send(t, http.MethodPost, ts.URL+"/v1/integrate", e.body)
		expectBody(t, c.name+", computed", status, got, structReply(t, e.resp, false, false))
		status, got = send(t, http.MethodPost, ts.URL+"/v1/integrate", e.body)
		expectBody(t, c.name+", hit", status, got, structReply(t, e.resp, true, false))
	}

	// Coalesced: the leader's run is held until a second request joins.
	_, held := expect(integrateBody{Sources: fixtureSources(), Options: requestOptions{MaxLevel: 2}})
	armed.Store(true)
	type reply struct {
		status int
		body   []byte
		err    error
	}
	post := func(out chan<- reply) {
		resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", bytes.NewReader(held.body))
		if err != nil {
			out <- reply{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		out <- reply{resp.StatusCode, body, err}
	}
	leader, waiter := make(chan reply, 1), make(chan reply, 1)
	go post(leader)
	waitFor(t, "the leader's flight", func() bool { return s.flights.inflightKeys() == 1 })
	go post(waiter)
	waitFor(t, "the waiter to join", func() bool { return s.metrics.coalesced.Load() == 1 })
	armed.Store(false)
	release()
	l, w := <-leader, <-waiter
	if l.err != nil || w.err != nil {
		t.Fatal(l.err, w.err)
	}
	expectBody(t, "leader", l.status, l.body, structReply(t, held.resp, false, false))
	expectBody(t, "coalesced waiter", w.status, w.body, structReply(t, held.resp, false, true))

	// Batch: a hit, a computed item with its duplicate, and an error.
	_, airline := expect(integrateBody{Domain: "Airline"})
	_, fresh := expect(integrateBody{Sources: fixtureSources(), Options: requestOptions{MaxLevel: 1}})
	_, unknownErr := qilabel.BuiltinDomain("Nope")
	batch := batchBody{Items: []integrateBody{
		{Domain: "Airline"},
		{Sources: fixtureSources(), Options: requestOptions{MaxLevel: 1}},
		{Sources: fixtureSources(), Options: requestOptions{MaxLevel: 1}},
		{Domain: "Nope"},
	}}
	line := func(index int, status string, resp integrateResponse) string {
		return string(mustJSON(t, batchItemResult{Index: index, Status: status, Key: resp.Key, Class: resp.Class, Labels: resp.Labels}))
	}
	wantLines := map[string]bool{
		line(0, statusHit, airline.resp):     true,
		line(1, statusComputed, fresh.resp):  true,
		line(2, statusCoalesced, fresh.resp): true,
		string(mustJSON(t, batchItemResult{Index: 3, Error: &errorBody{Code: codeBadRequest, Message: unknownErr.Error()}})):    true,
		string(mustJSON(t, batchSummaryLine{Done: true, Items: 4, Distinct: 2, Hits: 1, Coalesced: 1, Computed: 1, Errors: 1})): true,
	}
	status, body := send(t, http.MethodPost, ts.URL+"/v1/integrate/batch", mustJSON(t, batch))
	if status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	lines := 0
	for ; sc.Scan(); lines++ {
		if !wantLines[sc.Text()] {
			t.Fatalf("batch line differs from the struct encoding: %s\nwant one of %v", sc.Text(), wantLines)
		}
	}
	if lines != len(wantLines) || !bytes.HasSuffix(body, []byte("}\n")) {
		t.Fatalf("batch: %d lines, want %d:\n%s", lines, len(wantLines), body)
	}

	// Session /result: published on the first read, a hit on the second.
	sessOpts := requestOptions{NoInstances: true, MaxLevel: 1}
	_, sess := expect(integrateBody{Sources: fixtureSources(), Options: sessOpts})
	var created sessionCreateResponse
	status, body = send(t, http.MethodPost, ts.URL+"/v1/sessions", mustJSON(t, sessionCreateRequest{Options: sessOpts}))
	if err := json.Unmarshal(body, &created); status != http.StatusOK || err != nil {
		t.Fatalf("create session: status %d, %v", status, err)
	}
	for _, src := range fixtureSources() {
		if status, body := send(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
			mustJSON(t, sessionSourceRequest{Source: src})); status != http.StatusOK {
			t.Fatalf("add source: status %d: %s", status, body)
		}
	}
	status, body = send(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/result", nil)
	expectBody(t, "session result, computed", status, body, structReply(t, sess.resp, false, false))
	status, body = send(t, http.MethodGet, ts.URL+"/v1/sessions/"+created.ID+"/result", nil)
	expectBody(t, "session result, hit", status, body, structReply(t, sess.resp, true, false))

	// A snapshot saved with testdata/snapshot_v1.json loaded among fresh
	// entries persists the struct-encoded responses, and another server
	// serves them back as hits.
	const v1 = "testdata/snapshot_v1.json"
	if n, err := s.LoadCache(v1); err != nil || n != 2 {
		t.Fatalf("loading %s: %d entries, %v", v1, n, err)
	}
	var v1File cacheSnapshotFile
	if data, err := os.ReadFile(v1); err != nil || json.Unmarshal(data, &v1File) != nil {
		t.Fatalf("reading %s: %v", v1, err)
	}
	for _, e := range v1File.Entries {
		var resp integrateResponse
		if err := json.Unmarshal(e.Response, &resp); err != nil {
			t.Fatal(err)
		}
		expected[e.Key] = expectation{resp, mustJSON(t, integrateBody{Sources: e.Sources, Options: e.Options}), e.Sources, e.Options}
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	n, err := s.SaveCache(path)
	if err != nil || n != len(expected) {
		t.Fatalf("saved %d entries (%v), want %d", n, err, len(expected))
	}
	var saved cacheSnapshotFile
	if data, err := os.ReadFile(path); err != nil || json.Unmarshal(data, &saved) != nil {
		t.Fatalf("reading the saved snapshot: %v", err)
	}
	for _, e := range saved.Entries {
		if want := mustJSON(t, expected[e.Key].resp); !bytes.Equal(e.Response, want) {
			t.Fatalf("saved response of %s differs from the struct encoding:\n%s\nwant\n%s", e.Key, e.Response, want)
		}
	}

	s2, ts2 := newTestServer(t, Config{})
	if n, err := s2.LoadCache(path); err != nil || n != len(expected) {
		t.Fatalf("restored %d entries (%v), want %d", n, err, len(expected))
	}
	query := map[string]string{"c_Adult": "2", "c_Child": "1", "c_Senior": "1", "c_From": "Chicago", "c_Nope": "x"}
	for key, e := range expected {
		status, body := send(t, http.MethodPost, ts2.URL+"/v1/integrate", e.body)
		expectBody(t, "hit after the snapshot load", status, body, structReply(t, e.resp, true, false))

		ig, err := s2.integrator(e.ropts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ig.IntegrateContext(ctx, e.sources)
		if err != nil {
			t.Fatal(err)
		}
		want := structTranslateReply(t, key, res.Translate(query))
		tr := mustJSON(t, translateRequest{Key: key, Query: query})
		status, body = send(t, http.MethodPost, ts.URL+"/v1/translate", tr)
		expectBody(t, "translate", status, body, want)
		status, body = send(t, http.MethodPost, ts2.URL+"/v1/translate", tr)
		expectBody(t, "translate after the snapshot load", status, body, want)
	}
}
