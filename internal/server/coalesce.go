package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qilabel"
)

// Request coalescing: the server recomputes nothing it is already
// computing. Every cold integration is represented by a flight keyed by
// qilabel.CacheKey; the first request for a key (the leader) launches the
// pipeline run, and every identical request arriving while it is in the
// air joins as a waiter and shares the one result. N concurrent identical
// requests therefore trigger exactly one pipeline execution, one cache
// insertion and one cache-miss count — the duplicated-interface workload
// the paper's evaluation corpus models (many clients integrating one
// domain's source pool) collapses to a single computation.
//
// Waiters keep their own deadlines: a waiter whose request times out or
// whose client disconnects leaves the flight and gets its own error
// response, but the shared run keeps going as long as at least one waiter
// remains. Only when the last waiter has left is the run canceled (there
// is nobody left to deliver to). The run itself is bounded by the server's
// RequestTimeout from the moment it starts, so an abandoned flight can
// never outlive the budget a direct request would have had.

// errSaturated marks a flight that could not claim a worker-pool slot;
// every waiter maps it to 503 + Retry-After.
var errSaturated = errors.New("server saturated")

// flight is one in-flight pipeline computation shared by all concurrent
// requests for its cache key.
type flight struct {
	// done closes once resp/err are published; the fields are written
	// before the close, so readers that observed the close may read them
	// without locking.
	done chan struct{}
	// ctx bounds the shared run: RequestTimeout from flight creation,
	// canceled early when the last waiter leaves.
	ctx    context.Context
	cancel context.CancelFunc
	// waiters counts the requests sharing this flight (guarded by the
	// owning group's mutex). It starts at 1 for the leader.
	waiters int

	resp integrateResponse
	err  error
}

// flightGroup deduplicates concurrent computations by cache key — a
// singleflight group whose flights survive individual waiters leaving.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key, creating it when none is in the air.
// The boolean reports leadership: the caller that created the flight must
// launch the run and eventually call finish exactly once.
func (g *flightGroup) join(key string, timeout time.Duration) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.waiters++
		return f, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	f := &flight{done: make(chan struct{}), ctx: ctx, cancel: cancel, waiters: 1}
	g.m[key] = f
	return f, true
}

// leave records that one waiter gave up (its own deadline passed or its
// client disconnected). The last waiter to leave cancels the shared run:
// nobody is left to deliver the result to.
func (g *flightGroup) leave(f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.waiters--
	if f.waiters <= 0 {
		f.cancel()
	}
}

// finish publishes the flight's outcome and wakes every waiter. The flight
// leaves the group before done closes, so a request arriving after a
// failed flight starts fresh instead of inheriting a dead entry — on
// success the caller has already inserted the result into the cache, so
// the new request hits there. finish must be called exactly once, by the
// leader's run.
func (g *flightGroup) finish(key string, f *flight, resp integrateResponse, err error) {
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	f.resp, f.err = resp, err
	f.cancel()
	close(f.done)
}

// inflightKeys reports how many flights are currently in the air.
func (g *flightGroup) inflightKeys() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}

// ---- the coalesced integration path ------------------------------------

// Item statuses reported by integrateShared and the batch endpoint.
const (
	statusHit       = "hit"       // served from the result cache
	statusCoalesced = "coalesced" // joined another request's in-flight run
	statusComputed  = "computed"  // this request's run computed the result
)

// apiError is an endpoint-independent error: the HTTP handlers and the
// batch streamer render it into the shared envelope.
type apiError struct {
	status int
	code   string
	msg    string
}

// integrateShared is the one path every integration takes: cache first,
// then the flight group. block selects the worker-slot discipline — the
// interactive endpoints fail fast with 503 when the pool is saturated,
// the batch fan-out (which already bounds its own parallelism) waits for
// a slot instead.
func (s *Server) integrateShared(ctx context.Context, key string, sources []*qilabel.Tree, domain string, ropts requestOptions, block bool) (integrateResponse, string, *apiError) {
	lexLabel := lexiconLabel(ropts.Lexicon)
	hit := func(e *cacheEntry) (integrateResponse, string, *apiError) {
		s.metrics.cacheHits.Add(1)
		s.metrics.recordLexicon(lexLabel, statusHit)
		resp := e.resp
		resp.Cached = true
		return resp, statusHit, nil
	}
	if e, ok := s.cache.Get(key); ok {
		return hit(e)
	}
	if s.testHookMissed != nil {
		s.testHookMissed()
	}

	// The waiter's own budget: the request context bounded by the
	// configured timeout, independent of the shared run's budget.
	wctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	f, leader := s.flights.join(key, s.cfg.RequestTimeout)
	if leader {
		// A flight for key may have cached its result and finished between
		// the probe above and join. Probe again before computing: its
		// entry answers this request, and any waiter that already joined.
		if e, ok := s.cache.Get(key); ok {
			s.flights.finish(key, f, e.resp, nil)
			return hit(e)
		}
		s.metrics.cacheMisses.Add(1)
		s.metrics.recordLexicon(lexLabel, statusComputed)
		go s.runFlight(f, key, sources, domain, ropts, block)
	} else {
		s.metrics.coalesced.Add(1)
		s.metrics.recordLexicon(lexLabel, statusCoalesced)
	}

	select {
	case <-f.done:
		if f.err != nil {
			return integrateResponse{}, "", s.apiErrorFor(f.err)
		}
		resp := f.resp
		status := statusComputed
		if !leader {
			resp.Coalesced = true
			status = statusCoalesced
		}
		return resp, status, nil
	case <-wctx.Done():
		s.flights.leave(f)
		if ctx.Err() != nil {
			return integrateResponse{}, "", &apiError{statusClientClosedRequest, codeCanceled,
				"request canceled before the integration finished"}
		}
		return integrateResponse{}, "", s.timeoutError()
	}
}

// runFlight is the leader's run: claim a worker slot, execute the pipeline
// under the flight context, cache on success, publish the outcome. It runs
// on its own goroutine so the leader's request can time out or disconnect
// without killing a run other waiters still depend on.
func (s *Server) runFlight(f *flight, key string, sources []*qilabel.Tree, domain string, ropts requestOptions, block bool) {
	var release func()
	var ok bool
	if block {
		release, ok = s.acquireCtx(f.ctx)
		if !ok {
			s.flights.finish(key, f, integrateResponse{}, f.ctx.Err())
			return
		}
	} else if release, ok = s.acquire(); !ok {
		s.flights.finish(key, f, integrateResponse{}, errSaturated)
		return
	}
	defer release()

	if s.testHookSlow != nil {
		s.testHookSlow()
	}
	ig, err := s.integrator(ropts)
	if err != nil {
		s.flights.finish(key, f, integrateResponse{}, err)
		return
	}
	res, err := ig.IntegrateContext(f.ctx, sources)
	if err != nil {
		s.flights.finish(key, f, integrateResponse{}, err)
		return
	}
	// complete caches the entry before finish removes the flight, so there
	// is no instant at which the key is neither cached nor in the air.
	resp := s.complete(key, domain, sources, ropts, res)
	s.flights.finish(key, f, resp, nil)
}

// apiErrorFor maps a flight error onto the shared error envelope.
func (s *Server) apiErrorFor(err error) *apiError {
	switch {
	case errors.Is(err, errSaturated):
		return &apiError{503, codeSaturated,
			fmt.Sprintf("server saturated (%d integrations in flight); retry shortly", s.cfg.MaxInflight)}
	case errors.Is(err, context.DeadlineExceeded):
		return s.timeoutError()
	case errors.Is(err, context.Canceled):
		return &apiError{statusClientClosedRequest, codeCanceled,
			"request canceled before the integration finished"}
	default:
		return &apiError{400, codeBadRequest, err.Error()}
	}
}

func (s *Server) timeoutError() *apiError {
	return &apiError{504, codeTimeout,
		"integration exceeded the " + s.cfg.RequestTimeout.String() +
			" request timeout and was canceled; retry or split the source pool"}
}
