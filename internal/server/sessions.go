package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"net/http"
	"sync"
	"time"

	"qilabel"
	"qilabel/internal/schema"
)

// Stateful incremental integration over HTTP: a session owns a live
// qilabel.Session — a mutable source multiset re-integrated on its
// Integrator's warm cache — so clients stream source changes (add,
// update, remove) and read the re-labeled integrated interface after each
// one, sending one tree per revision instead of the whole source set.
//
//	POST   /v1/sessions                         create (options fixed for life)
//	GET    /v1/sessions/{id}                    source hashes + lifetime stats
//	DELETE /v1/sessions/{id}                    close
//	POST   /v1/sessions/{id}/sources            add one source tree
//	PUT    /v1/sessions/{id}/sources/{hash}     replace one source
//	DELETE /v1/sessions/{id}/sources/{hash}     remove one source
//	GET    /v1/sessions/{id}/result             current integration
//
// Sessions are server-owned state bounded two ways: an idle TTL (a
// session untouched for SessionTTL is evicted lazily) and a session cap
// (creating past MaxSessions evicts the least-recently-used session).
// Clients must treat a 404 on a known id as eviction and recreate.
//
// Cache interop: /result publishes the session's outcome into the result
// LRU under the session's cache key — exactly the key a /v1/integrate of
// the same source set computes — so /v1/translate works against it, a
// later identical /v1/integrate is a warm hit, and with -cache-file the
// labeling survives a restart even though the session itself does not.

// sessionStore tracks live sessions with idle-TTL and LRU-cap eviction.
type sessionStore struct {
	mu  sync.Mutex // also guards liveSession.lastUsed
	ttl time.Duration
	max int
	m   map[string]*liveSession
	now func() time.Time // test seam
	// evicted receives the count of sessions dropped by TTL or capacity.
	evicted func(n int)
}

// liveSession is one server-side session. mu holds each delta operation
// together with its read-back, and each read of the session's state, so
// a reply describes one state; lastUsed is guarded by the store lock.
type liveSession struct {
	id       string
	mu       sync.Mutex
	sess     *qilabel.Session
	ropts    requestOptions
	created  time.Time
	lastUsed time.Time
}

func newSessionStore(ttl time.Duration, max int, evicted func(int)) *sessionStore {
	return &sessionStore{
		ttl:     ttl,
		max:     max,
		m:       make(map[string]*liveSession),
		now:     time.Now,
		evicted: evicted,
	}
}

// sweep drops expired sessions. Caller holds the lock.
func (st *sessionStore) sweepLocked(now time.Time) {
	if st.ttl <= 0 {
		return
	}
	n := 0
	for id, ls := range st.m {
		if now.Sub(ls.lastUsed) > st.ttl {
			delete(st.m, id)
			n++
		}
	}
	if n > 0 && st.evicted != nil {
		st.evicted(n)
	}
}

// add registers a new session, evicting expired sessions first and the
// least-recently-used one if the store is at capacity.
func (st *sessionStore) add(ls *liveSession) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.sweepLocked(now)
	for st.max > 0 && len(st.m) >= st.max {
		var oldest *liveSession
		for _, cand := range st.m {
			if oldest == nil || cand.lastUsed.Before(oldest.lastUsed) {
				oldest = cand
			}
		}
		delete(st.m, oldest.id)
		if st.evicted != nil {
			st.evicted(1)
		}
	}
	ls.created = now
	ls.lastUsed = now
	st.m[ls.id] = ls
}

// get returns the session and refreshes its idle clock.
func (st *sessionStore) get(id string) (*liveSession, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	now := st.now()
	st.sweepLocked(now)
	ls, ok := st.m[id]
	if ok {
		ls.lastUsed = now
	}
	return ls, ok
}

// remove deletes the session, reporting whether it existed.
func (st *sessionStore) remove(id string) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.m[id]
	delete(st.m, id)
	return ok
}

// active returns the live session count (after a TTL sweep, so the
// /metrics gauge never counts sessions that are already dead).
func (st *sessionStore) active() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.sweepLocked(st.now())
	return len(st.m)
}

func newSessionID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("sessions: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// ---- request/response shapes -------------------------------------------

type sessionCreateRequest struct {
	Options requestOptions `json:"options"`
}

type sessionCreateResponse struct {
	ID string `json:"id"`
	// Fingerprint is the canonical rendering of the session's effective
	// configuration (qilabel.Fingerprint).
	Fingerprint string `json:"fingerprint"`
	// TTLSeconds is the idle eviction horizon; every operation on the
	// session resets the clock.
	TTLSeconds float64 `json:"ttlSeconds"`
}

type sessionInfoResponse struct {
	ID          string                `json:"id"`
	Fingerprint string                `json:"fingerprint"`
	Sources     []string              `json:"sources"`
	Key         string                `json:"key,omitempty"`
	Totals      qilabel.SessionTotals `json:"totals"`
	LastOp      *qilabel.SessionStats `json:"lastOp,omitempty"`
}

type sessionSourceRequest struct {
	Source *qilabel.Tree `json:"source"`
}

// sessionOpResponse answers every delta operation: the handle of the
// source the operation created (add/update), the new source count, the
// cache key of the new state, and the operation's delta profile.
type sessionOpResponse struct {
	ID      string               `json:"id"`
	Hash    string               `json:"hash,omitempty"`
	Sources int                  `json:"sources"`
	Key     string               `json:"key,omitempty"`
	Stats   qilabel.SessionStats `json:"stats"`
}

// ---- handlers -----------------------------------------------------------

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if !s.decode(w, r, &req) {
		return
	}
	// The lexicon resolves once, here: the session stays pinned to the
	// exact version it was created under for its whole life, however many
	// hot reloads move the alias it was created with.
	var apiErr *apiError
	req.Options, apiErr = s.resolveLexicon(lexiconFromRequest(r, req.Options))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	ig, err := s.integrator(req.Options)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	sess := ig.NewSession()
	ls := &liveSession{id: newSessionID(), sess: sess, ropts: req.Options}
	s.sessions.add(ls)
	s.metrics.sessionsCreated.Add(1)
	writeJSON(w, http.StatusOK, sessionCreateResponse{
		ID:          ls.id,
		Fingerprint: sess.Fingerprint(),
		TTLSeconds:  s.cfg.SessionTTL.Seconds(),
	})
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeSessionNotFound(w)
		return
	}
	resp := sessionInfoResponse{ID: ls.id, Fingerprint: ls.sess.Fingerprint()}
	ls.mu.Lock()
	resp.Sources = ls.sess.SourceHashes()
	resp.Totals = ls.sess.Totals()
	if len(resp.Sources) > 0 {
		resp.Key = ls.sess.CacheKey()
	}
	if resp.Totals.Ops > 0 {
		st := ls.sess.Stats()
		resp.LastOp = &st
	}
	ls.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if !s.sessions.remove(r.PathValue("id")) {
		writeSessionNotFound(w)
		return
	}
	s.metrics.sessionsClosed.Add(1)
	writeJSON(w, http.StatusOK, map[string]bool{"closed": true})
}

func (s *Server) handleSessionAdd(w http.ResponseWriter, r *http.Request) {
	s.sessionDelta(w, r, func(ctx context.Context, ls *liveSession, req sessionSourceRequest) (string, error) {
		if req.Source == nil {
			return "", errBadSourceBody
		}
		return ls.sess.AddSource(ctx, req.Source)
	})
}

func (s *Server) handleSessionUpdate(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.sessionDelta(w, r, func(ctx context.Context, ls *liveSession, req sessionSourceRequest) (string, error) {
		if req.Source == nil {
			return "", errBadSourceBody
		}
		return ls.sess.UpdateSource(ctx, hash, req.Source)
	})
}

func (s *Server) handleSessionRemove(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	s.sessionDelta(w, r, func(ctx context.Context, ls *liveSession, _ sessionSourceRequest) (string, error) {
		return "", ls.sess.RemoveSource(ctx, hash)
	})
}

var errBadSourceBody = errors.New(`no source tree in request body (expected {"source": {...}})`)

// sessionDelta is the shared delta-operation path: resolve the session,
// claim a worker slot (delta operations run on the same bounded pool as
// integrations), run the operation under the request timeout, tally the
// per-op metrics and answer with the new state's summary. The operation
// and its read-back hold the session's lock, so concurrent deltas each
// answer with their own state.
func (s *Server) sessionDelta(w http.ResponseWriter, r *http.Request,
	op func(context.Context, *liveSession, sessionSourceRequest) (string, error)) {

	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeSessionNotFound(w)
		return
	}
	var req sessionSourceRequest
	if r.Method != http.MethodDelete && !s.decode(w, r, &req) {
		return
	}
	release, ok := s.acquire()
	if !ok {
		writeAPIError(w, s.apiErrorFor(errSaturated))
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, err := s.runDelta(ctx, ls, req, op)
	if err != nil {
		writeAPIError(w, s.sessionErrorFor(err))
		return
	}
	s.recordDelta(resp.Stats.Op)
	writeJSON(w, http.StatusOK, resp)
}

// runDelta runs one delta operation and reads the new state back under
// the session's lock. A panic in the pipeline becomes an internal error;
// the session keeps its state, since a Session commits an operation only
// after its run succeeds.
func (s *Server) runDelta(ctx context.Context, ls *liveSession, req sessionSourceRequest,
	op func(context.Context, *liveSession, sessionSourceRequest) (string, error)) (resp sessionOpResponse, err error) {

	ls.mu.Lock()
	defer ls.mu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			resp, err = sessionOpResponse{}, s.internalError(v)
		}
	}()
	if s.testHookPipeline != nil {
		s.testHookPipeline()
	}
	hash, err := op(ctx, ls, req)
	if err != nil {
		return sessionOpResponse{}, err
	}
	resp = sessionOpResponse{ID: ls.id, Hash: hash, Stats: ls.sess.Stats(), Sources: ls.sess.Len()}
	if resp.Sources > 0 {
		resp.Key = ls.sess.CacheKey()
	}
	return resp, nil
}

// recordDelta counts one delta operation by kind.
func (s *Server) recordDelta(op string) {
	switch op {
	case "add":
		s.metrics.deltaAdds.Add(1)
	case "update":
		s.metrics.deltaUpdates.Add(1)
	case "remove":
		s.metrics.deltaRemoves.Add(1)
	}
}

func (s *Server) handleSessionResult(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeSessionNotFound(w)
		return
	}
	// The result, its key and the sources it is published with must
	// describe one state: a delta committing between the reads would
	// publish a result under another state's key.
	ls.mu.Lock()
	res, err := ls.sess.Result()
	key := ls.sess.CacheKey()
	entry, hit := s.cache.Get(key)
	var sources []*qilabel.Tree
	if err == nil && !hit {
		sources = ls.sess.Sources()
	}
	ls.mu.Unlock()
	if err != nil {
		writeAPIError(w, s.sessionErrorFor(err))
		return
	}
	if hit {
		// The session state was already published (or an identical
		// /v1/integrate ran): serve the cached response like a warm
		// integration.
		s.metrics.cacheHits.Add(1)
		s.metrics.recordLexicon(lexiconLabel(ls.ropts.Lexicon), statusHit)
		writeReply(w, entry, statusHit)
		return
	}
	// Publish into the result cache under the from-scratch key: the
	// equivalence gate guarantees res is byte-identical to what
	// /v1/integrate would compute, so translate, cache persistence and
	// later integrations all interoperate.
	canon, hashes := schema.EncodeCanonical(sources)
	writeReply(w, s.complete(&pending{key: key, ropts: ls.ropts, canon: canon, hashes: hashes}, res), statusComputed)
}

// sessionErrorFor maps session-layer errors onto the shared envelope:
// unknown hashes are 404s, an empty session is a 409, everything else
// follows the integration error mapping.
func (s *Server) sessionErrorFor(err error) *apiError {
	switch {
	case errors.Is(err, qilabel.ErrUnknownSource):
		return &apiError{http.StatusNotFound, codeNotFound, err.Error()}
	case errors.Is(err, qilabel.ErrSessionEmpty):
		return &apiError{http.StatusConflict, codeBadRequest,
			"session has no sources; add sources before reading the result"}
	case errors.Is(err, errBadSourceBody):
		return &apiError{http.StatusBadRequest, codeBadRequest, err.Error()}
	default:
		return s.apiErrorFor(err)
	}
}

func writeSessionNotFound(w http.ResponseWriter) {
	writeError(w, http.StatusNotFound, codeNotFound,
		"unknown or evicted session id; create a new session with POST /v1/sessions")
}
