package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qilabel"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCoalescingSingleRun fires 50 identical concurrent /v1/integrate
// requests (run under -race): exactly one pipeline execution serves all of
// them — one cache miss, one cache insertion, one set of pipeline-stage
// observer events — and all 50 receive the same successful result.
func TestCoalescingSingleRun(t *testing.T) {
	const clients = 50
	unblock := make(chan struct{})
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	s.testHookSlow = func() {
		// Hold the single flight open until every other request has
		// coalesced onto it, so none can slip in late and hit the cache.
		waitFor(t, "all waiters to coalesce", func() bool {
			return s.metrics.coalesced.Load() == clients-1
		})
		<-unblock
	}

	body, err := json.Marshal(integrateRequest{Sources: fixtureSources()})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		status int
		resp   integrateResponse
	}
	replies := make(chan reply, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			var out integrateResponse
			defer resp.Body.Close()
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Error(err)
				return
			}
			replies <- reply{resp.StatusCode, out}
		}()
	}
	// All 49 followers have joined once the hook's wait returns; release
	// the run.
	waitFor(t, "flight to form", func() bool { return s.metrics.coalesced.Load() == clients-1 })
	close(unblock)
	wg.Wait()
	close(replies)

	var key, class string
	n := 0
	for r := range replies {
		n++
		if r.status != http.StatusOK {
			t.Fatalf("status = %d, want 200", r.status)
		}
		if key == "" {
			key, class = r.resp.Key, r.resp.Class
		}
		if r.resp.Key != key || r.resp.Class != class {
			t.Fatalf("divergent responses: key %q/%q class %q/%q", r.resp.Key, key, r.resp.Class, class)
		}
		if r.resp.Cached {
			t.Fatal("a coalesced waiter was reported as a cache hit")
		}
	}
	if n != clients {
		t.Fatalf("got %d replies, want %d", n, clients)
	}

	// Exactly one pipeline execution: the stage observer fired once per
	// stage, the cache saw one miss and holds one entry, and 49 requests
	// coalesced.
	snap := s.metrics.snapshot(s.cache.Len(), s.cfg.CacheSize, 0)
	for _, stage := range []string{"validate", "merge", "naming"} {
		if c := snap.Stages[stage].Count; c != 1 {
			t.Errorf("stage %q ran %d times, want exactly 1", stage, c)
		}
	}
	if snap.Cache.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", snap.Cache.Misses)
	}
	if snap.Cache.Coalesced != clients-1 {
		t.Errorf("coalesced = %d, want %d", snap.Cache.Coalesced, clients-1)
	}
	if s.cache.Len() != 1 {
		t.Errorf("cache entries = %d, want exactly 1 insertion", s.cache.Len())
	}
	waitDrained(t, s)
}

// TestCoalescingLeaderDisconnect: the request that initiated the run
// disconnects mid-flight while a second identical request waits. The
// shared run must keep going — only the last waiter leaving cancels it —
// and the surviving waiter still receives the full result.
func TestCoalescingLeaderDisconnect(t *testing.T) {
	entered := make(chan struct{})
	unblock := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.testHookSlow = func() {
		close(entered)
		<-unblock
	}

	body, err := json.Marshal(integrateRequest{Sources: fixtureSources()})
	if err != nil {
		t.Fatal(err)
	}

	// The initiating client, on a cancellable context.
	ctx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost,
			ts.URL+"/v1/integrate", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-entered

	// A second identical request joins the flight.
	type result struct {
		status int
		resp   integrateResponse
	}
	waiterDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			waiterDone <- result{}
			return
		}
		var out integrateResponse
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Error(err)
		}
		waiterDone <- result{resp.StatusCode, out}
	}()
	waitFor(t, "the waiter to coalesce", func() bool { return s.metrics.coalesced.Load() == 1 })

	// The initiator walks away; the waiter remains.
	cancelLeader()
	<-leaderDone
	close(unblock)

	got := <-waiterDone
	if got.status != http.StatusOK {
		t.Fatalf("surviving waiter got status %d, want 200", got.status)
	}
	if got.resp.Key == "" || got.resp.Tree == nil || !got.resp.Coalesced {
		t.Fatalf("surviving waiter got an incomplete result: key=%q coalesced=%v tree=%v",
			got.resp.Key, got.resp.Coalesced, got.resp.Tree != nil)
	}
	if got.resp.Labels["c_Adult"] == "" {
		t.Fatalf("no label for c_Adult: %v", got.resp.Labels)
	}
	// The result of the completed run is cached exactly once.
	if s.cache.Len() != 1 {
		t.Fatalf("cache entries = %d, want 1", s.cache.Len())
	}
	waitDrained(t, s)
}

// TestCoalescedErrorDoesNotLeakFlight: a failing run (invalid sources
// reaching the pipeline) must clear its in-flight entry so later requests
// start fresh, and must insert nothing into the cache.
func TestCoalescedErrorDoesNotLeakFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Cluster-free sources pass resolution but fail inside the pipeline.
	bad := []*qilabel.Tree{qilabel.NewTree("solo", qilabel.NewField("Only", ""))}

	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts.URL+"/v1/integrate", integrateRequest{Sources: bad})
		var env errorEnvelope
		decodeBody(t, resp, &env)
		if resp.StatusCode != http.StatusBadRequest || env.Error.Code != codeBadRequest {
			t.Fatalf("attempt %d: status=%d code=%q, want 400/%q", i, resp.StatusCode, env.Error.Code, codeBadRequest)
		}
	}
	if s.cache.Len() != 0 {
		t.Fatalf("failed integration reached the cache (%d entries)", s.cache.Len())
	}
	if n := s.flights.inflightKeys(); n != 0 {
		t.Fatalf("failed flight leaked: %d in-flight keys", n)
	}
	// Both attempts were fresh computations, not coalesced onto a stale
	// flight entry.
	if got := s.metrics.cacheMisses.Load(); got != 2 {
		t.Fatalf("cache misses = %d, want 2 (each failed attempt recomputes)", got)
	}
}

// TestMissedProbeServedFromCache: a request whose cache probe misses, but
// that joins a flight only after an identical request has computed,
// cached and finished, is answered from the cache instead of leading a
// second computation. The hook between the probe and the join runs that
// identical request to completion, so the window is hit every time. Batch
// items take the same path.
func TestMissedProbeServedFromCache(t *testing.T) {
	body, err := json.Marshal(integrateRequest{Sources: fixtureSources()})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		// send issues the late request and returns its item status.
		send func(t *testing.T, url string) string
	}{
		{"single", func(t *testing.T, url string) string {
			resp := postJSON(t, url+"/v1/integrate", integrateRequest{Sources: fixtureSources()})
			var out integrateResponse
			decodeBody(t, resp, &out)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, want 200", resp.StatusCode)
			}
			switch {
			case out.Cached:
				return statusHit
			case out.Coalesced:
				return statusCoalesced
			}
			return statusComputed
		}},
		{"batch", func(t *testing.T, url string) string {
			status, items, _ := postBatch(t, url, batchRequest{Items: []integrateRequest{{Sources: fixtureSources()}}})
			if status != http.StatusOK || len(items) != 1 {
				t.Fatalf("batch status = %d with %d items, want 200 with 1", status, len(items))
			}
			return items[0].Status
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			// The hook runs on a handler goroutine: it reports what the
			// racing request got through raced, not through t.
			raced := make(chan string, 1)
			var calls atomic.Int32
			s.testHookMissed = func() {
				if calls.Add(1) != 1 {
					return // the racing request's own probe
				}
				resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", bytes.NewReader(body))
				if err != nil {
					raced <- err.Error()
					return
				}
				defer resp.Body.Close()
				var out integrateResponse
				if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
					raced <- err.Error()
					return
				}
				raced <- fmt.Sprintf("status %d cached %v coalesced %v", resp.StatusCode, out.Cached, out.Coalesced)
			}
			if got := tc.send(t, ts.URL); got != statusHit {
				t.Errorf("late request was %s, want a cache hit", got)
			}
			// The late request answers only after its hook returned.
			select {
			case got := <-raced:
				if want := "status 200 cached false coalesced false"; got != want {
					t.Errorf("racing request: %s, want %s", got, want)
				}
			default:
				t.Error("the hook between probe and join never ran")
			}
			snap := s.metrics.snapshot(s.cache.Len(), s.cfg.CacheSize, 0)
			if snap.Cache.Misses != 1 || snap.Cache.Hits != 1 {
				t.Errorf("cache misses = %d, hits = %d, want exactly 1 each", snap.Cache.Misses, snap.Cache.Hits)
			}
			if c := snap.Stages["naming"].Count; c != 1 {
				t.Errorf("naming ran %d times, want exactly 1", c)
			}
			waitDrained(t, s)
		})
	}
}
