package server

import (
	"context"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"qilabel"
	"qilabel/internal/pool"
)

// panicHook arms s.testHookPipeline: while armed, the pipeline region
// panics the way a failing naming unit does, on a pool worker whose panic
// ForEach carries back to the region's goroutine.
func panicHook(s *Server, armed *atomic.Bool, hold <-chan struct{}) {
	s.testHookPipeline = func() {
		if !armed.Load() {
			return
		}
		if hold != nil {
			<-hold
		}
		_ = pool.ForEach(context.Background(), 2, 64, func(_, i int) {
			if i == 40 {
				panic("injected pipeline failure")
			}
		})
	}
}

func panicCount(t *testing.T, url string) int64 {
	t.Helper()
	var m snapshot
	decodeBody(t, mustGet(t, url+"/metrics"), &m)
	return m.Panics
}

// TestFlightPanicIsContained: every waiter of a flight whose pipeline
// panics gets the internal error code, nothing is cached, the slot and the
// flight are released, /metrics counts the panic once, and the next
// request for the key computes.
func TestFlightPanicIsContained(t *testing.T) {
	const clients = 5
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	var armed atomic.Bool
	armed.Store(true)
	unblock, release := holdHook(t)
	panicHook(s, &armed, unblock)
	req := integrateBody{Sources: fixtureSources()}

	codes := make(chan string, clients)
	statuses := make(chan int, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := tryPostJSON(ts.URL+"/v1/integrate", req)
			if err != nil {
				t.Error(err)
				return
			}
			var out errorEnvelope
			if err := tryDecodeBody(resp, &out); err != nil {
				t.Error(err)
				return
			}
			statuses <- resp.StatusCode
			codes <- out.Error.Code
		}()
	}
	waitFor(t, "flight to form", func() bool { return s.metrics.coalesced.Load() == clients-1 })
	release()
	wg.Wait()
	close(codes)
	close(statuses)
	for st := range statuses {
		if st != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", st)
		}
	}
	for c := range codes {
		if c != codeInternal {
			t.Fatalf("error code %q, want %q", c, codeInternal)
		}
	}
	if n := panicCount(t, ts.URL); n != 1 {
		t.Fatalf("/metrics panics = %d, want 1", n)
	}
	if s.cache.Len() != 0 {
		t.Fatal("a panicked flight left a cache entry")
	}
	if got := s.metrics.inflight.Load(); got != 0 {
		t.Fatalf("%d slots still held", got)
	}

	armed.Store(false)
	resp := postJSON(t, ts.URL+"/v1/integrate", req)
	var out integrateResponse
	decodeBody(t, resp, &out)
	if resp.StatusCode != http.StatusOK || out.Cached || out.Coalesced {
		t.Fatalf("next request: status %d cached %v coalesced %v, want a fresh computation",
			resp.StatusCode, out.Cached, out.Coalesced)
	}
}

// TestSessionDeltaPanicKeepsSession: a delta whose pipeline panics answers
// the internal error code, releases the session's lock and leaves the
// session's state as it was, so its next delta runs.
func TestSessionDeltaPanicKeepsSession(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var armed atomic.Bool
	panicHook(s, &armed, nil)
	created := createSession(t, ts.URL, requestOptions{})
	add := func(tree *qilabel.Tree) (*http.Response, sessionOpResponse) {
		var out sessionOpResponse
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
			sessionSourceRequest{Source: tree}, &out)
		return resp, out
	}
	sources := fixtureSources()
	if resp, _ := add(sources[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("first add: status %d", resp.StatusCode)
	}

	armed.Store(true)
	var failed errorEnvelope
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/sessions/"+created.ID+"/sources",
		sessionSourceRequest{Source: sources[1]}, &failed)
	if resp.StatusCode != http.StatusInternalServerError || failed.Error.Code != codeInternal {
		t.Fatalf("panicking add: status %d code %q, want 500 %q", resp.StatusCode, failed.Error.Code, codeInternal)
	}
	if n := panicCount(t, ts.URL); n != 1 {
		t.Fatalf("/metrics panics = %d, want 1", n)
	}

	armed.Store(false)
	resp, out := add(sources[1])
	if resp.StatusCode != http.StatusOK || out.Sources != 2 {
		t.Fatalf("add after the panic: status %d with %d sources, want 200 with 2", resp.StatusCode, out.Sources)
	}
}

// TestIngestPanicIsContained: an ingest whose pipeline panics answers the
// internal error code and changes no domain; the next ingest runs.
func TestIngestPanicIsContained(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var armed atomic.Bool
	armed.Store(true)
	panicHook(s, &armed, nil)
	tree := ingestTree("a", "Departure City", "Arrival City")
	var failed errorEnvelope
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/ingest", ingestRequest{Source: tree}, &failed)
	if resp.StatusCode != http.StatusInternalServerError || failed.Error.Code != codeInternal {
		t.Fatalf("panicking ingest: status %d code %q, want 500 %q", resp.StatusCode, failed.Error.Code, codeInternal)
	}
	armed.Store(false)
	if out := ingestSource(t, ts.URL, tree); !out.Assignments[0].New || out.Domains != 1 {
		t.Fatalf("ingest after the panic: %+v, want one new domain", out)
	}
	if n := panicCount(t, ts.URL); n != 1 {
		t.Fatalf("/metrics panics = %d, want 1", n)
	}
}
