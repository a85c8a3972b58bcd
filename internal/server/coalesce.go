package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"qilabel"
	"qilabel/internal/schema"
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
	// done closes once entry/err are published; the fields are written
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

	entry *cacheEntry
	err   error
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
func (g *flightGroup) finish(key string, f *flight, entry *cacheEntry, err error) {
	g.mu.Lock()
	if g.m[key] == f {
		delete(g.m, key)
	}
	g.mu.Unlock()
	f.entry, f.err = entry, err
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

// pending is one integration request resolved for the shared path: its
// cache key and what a cold run needs. The sources' canonical encoding
// and hashes are computed once, for the key; the entry keeps them. The
// run hands sources over to the pipeline, so nothing reads them after the
// request joins its flight.
type pending struct {
	key     string
	domain  string
	ropts   requestOptions
	sources []*qilabel.Tree
	canon   []byte
	hashes  []string
}

// newPending resolves an integration of sources under ig.
func newPending(ig *qilabel.Integrator, sources []*qilabel.Tree, domain string, ropts requestOptions) *pending {
	canon, hashes := schema.EncodeCanonical(sources)
	return &pending{
		key:     schema.CacheKey(hashes, ig.Fingerprint()),
		domain:  domain,
		ropts:   ropts,
		sources: sources,
		canon:   canon,
		hashes:  hashes,
	}
}

// integrateShared is the one path every integration takes: cache first,
// then the flight group. It returns the entry that answers the request
// and how the request obtained it. block selects the worker-slot
// discipline — the interactive endpoints fail fast with 503 when the pool
// is saturated, the batch fan-out (which already bounds its own
// parallelism) waits for a slot instead.
func (s *Server) integrateShared(ctx context.Context, p *pending, block bool) (*cacheEntry, string, *apiError) {
	lexLabel := lexiconLabel(p.ropts.Lexicon)
	hit := func(e *cacheEntry) (*cacheEntry, string, *apiError) {
		s.metrics.cacheHits.Add(1)
		s.metrics.recordLexicon(lexLabel, statusHit)
		return e, statusHit, nil
	}
	if e, ok := s.cache.Get(p.key); ok {
		return hit(e)
	}
	if s.testHookMissed != nil {
		s.testHookMissed()
	}

	// The waiter's own budget: the request context bounded by the
	// configured timeout, independent of the shared run's budget.
	wctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()

	f, leader := s.flights.join(p.key, s.cfg.RequestTimeout)
	if leader {
		// A flight for key may have cached its result and finished between
		// the probe above and join. Probe again before computing: its
		// entry answers this request, and any waiter that already joined.
		if e, ok := s.cache.Get(p.key); ok {
			s.flights.finish(p.key, f, e, nil)
			return hit(e)
		}
		s.metrics.cacheMisses.Add(1)
		s.metrics.recordLexicon(lexLabel, statusComputed)
		go s.runFlight(f, p, block)
	} else {
		s.metrics.coalesced.Add(1)
		s.metrics.recordLexicon(lexLabel, statusCoalesced)
	}

	select {
	case <-f.done:
		if f.err != nil {
			return nil, "", s.apiErrorFor(f.err)
		}
		if !leader {
			return f.entry, statusCoalesced, nil
		}
		return f.entry, statusComputed, nil
	case <-wctx.Done():
		s.flights.leave(f)
		if ctx.Err() != nil {
			return nil, "", &apiError{statusClientClosedRequest, codeCanceled,
				"request canceled before the integration finished"}
		}
		return nil, "", s.timeoutError()
	}
}

// runFlight is the leader's run: claim a worker slot, execute the pipeline
// under the flight context on the request's trees, cache on success,
// publish the outcome. It runs on its own goroutine so the leader's
// request can time out or disconnect without killing a run other waiters
// still depend on.
func (s *Server) runFlight(f *flight, p *pending, block bool) {
	var release func()
	var ok bool
	if block {
		release, ok = s.acquireCtx(f.ctx)
		if !ok {
			s.flights.finish(p.key, f, nil, f.ctx.Err())
			return
		}
	} else if release, ok = s.acquire(); !ok {
		s.flights.finish(p.key, f, nil, errSaturated)
		return
	}
	defer release()

	// compute caches the entry before finish removes the flight, so there
	// is no instant at which the key is neither cached nor in the air.
	e, err := s.compute(f.ctx, p)
	s.flights.finish(p.key, f, e, err)
}

// compute runs the pipeline on a flight's request and caches its entry. A
// panic in it becomes an internal error, and nothing is cached.
func (s *Server) compute(ctx context.Context, p *pending) (e *cacheEntry, err error) {
	defer func() {
		if v := recover(); v != nil {
			e, err = nil, s.internalError(v)
		}
	}()
	if s.testHookSlow != nil {
		s.testHookSlow()
	}
	if s.testHookPipeline != nil {
		s.testHookPipeline()
	}
	ig, err := s.integrator(p.ropts)
	if err != nil {
		return nil, err
	}
	res, err := ig.IntegrateOwned(ctx, p.sources, p.hashes)
	if err != nil {
		return nil, err
	}
	return s.complete(p, res), nil
}

// internalError is a panic recovered in the pipeline: the request fails
// with the internal error code, and the daemon and its other requests go
// on.
type internalError struct{ value any }

func (e *internalError) Error() string {
	return fmt.Sprintf("internal error: %v", e.value)
}

// internalError counts a recovered panic and returns the error its
// request fails with.
func (s *Server) internalError(v any) error {
	s.metrics.panics.Add(1)
	return &internalError{v}
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
	case errors.As(err, new(*internalError)):
		return &apiError{500, codeInternal,
			"internal error while integrating; nothing was cached or changed, and the request may be retried"}
	default:
		return &apiError{400, codeBadRequest, err.Error()}
	}
}

func (s *Server) timeoutError() *apiError {
	return &apiError{504, codeTimeout,
		"integration exceeded the " + s.cfg.RequestTimeout.String() +
			" request timeout and was canceled; retry or split the source pool"}
}
