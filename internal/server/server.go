// Package server exposes the full labeling pipeline — extraction,
// matching, merging, naming, evaluation and query translation — as a
// long-running HTTP/JSON service, the deployment shape the paper's system
// overview implies: source interfaces arrive, get integrated and labeled
// once, and global queries are then translated against the cached
// integration for many users.
//
// Endpoints:
//
//	POST /v1/integrate        source trees (or a builtin domain) in,
//	                          labeled tree + classification + labels +
//	                          report out
//	POST /v1/integrate/batch  up to MaxBatchItems source-tree sets in,
//	                          deduplicated, fanned out, streamed back as
//	                          NDJSON with per-item status and errors
//	POST /v1/extract          raw HTML in, schema trees out; optionally
//	                          piped straight into integration with the
//	                          matcher
//	POST /v1/translate        global query against a cached integration
//	                          in, per-source subqueries out (pure cache
//	                          hit)
//	POST /v1/sessions         stateful incremental integration: add,
//	                          update and remove sources one at a time and
//	                          read the re-labeled interface after every
//	                          change (see sessions.go for the sub-routes)
//	GET  /v1/domains          the builtin evaluation corpora
//	GET  /healthz             liveness probe
//	GET  /metrics             request/latency/cache/inference-rule counters
//
// Production plumbing: a bounded worker pool (503 + Retry-After on
// saturation), per-request timeouts, request-size limits, per-stage
// pipeline timings on /metrics, and an LRU cache of integration results
// keyed by qilabel.CacheKey, so repeated integrations of one source pool
// skip match/merge/naming entirely. Identical concurrent requests
// coalesce onto a single pipeline run (see coalesce.go): a request that
// times out or disconnects answers immediately, but the shared run
// continues while other requests still wait on it, and only the last
// waiter leaving cancels the pipeline. With a cache snapshot file (see
// persist.go and qilabeld's -cache-file) the result cache survives
// restarts.
//
// Errors use one structured envelope across every /v1/* endpoint:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// with the stable codes bad_request, too_large, saturated, timeout,
// canceled and not_found.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"qilabel"
	"qilabel/internal/dataset"
	"qilabel/internal/discover"
	"qilabel/internal/schema"
)

// Config tunes the service. The zero value selects production defaults.
type Config struct {
	// MaxInflight bounds the number of pipeline computations running at
	// once; further requests receive 503 + Retry-After instead of queueing
	// unboundedly. Zero: 2×GOMAXPROCS.
	MaxInflight int
	// MaxBodyBytes limits request bodies; larger bodies receive 413.
	// Bodies are read whole before they are decoded, so a body over the
	// limit receives 413 even when its JSON value ends within it.
	// Zero: 8 MiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one pipeline computation; on expiry the
	// request receives 504 and the computation is canceled — the pipeline
	// observes the context, stops, frees its worker slot and caches
	// nothing. Zero: 30 s.
	RequestTimeout time.Duration
	// CacheSize is the integration-result LRU capacity in entries.
	// Zero: 128. Negative: caching disabled.
	CacheSize int
	// Lexicon, when non-nil, replaces the embedded default lexicon for
	// every request that selects no other version (it participates in
	// cache keys via the fingerprint).
	Lexicon *qilabel.Lexicon
	// MaxLexicons caps the versions the lexicon registry holds at once
	// (alias-pinned and default versions never evict). Zero: the
	// registry's default bound.
	MaxLexicons int
	// Parallelism bounds the worker pool each pipeline computation fans its
	// parallel stages out over (0 or negative: GOMAXPROCS, 1: serial).
	// Never changes results, so it does not participate in cache keys.
	Parallelism int
	// MaxBatchItems caps how many source-tree sets one /v1/integrate/batch
	// request may carry. Zero: 64.
	MaxBatchItems int
	// SessionTTL is how long an idle /v1/sessions session survives before
	// eviction (every operation resets the clock). Zero: 15 minutes.
	// Negative: sessions never expire (they still fall to MaxSessions).
	SessionTTL time.Duration
	// MaxSessions caps concurrently live sessions; creating past the cap
	// evicts the least-recently-used session. Zero: 64.
	MaxSessions int
	// DiscoverThreshold is the /v1/ingest similarity level at which two
	// forms belong to the same discovered domain, in (0, 1]. Zero:
	// discover.DefaultThreshold. It shapes the partition only and never
	// enters integration cache keys.
	DiscoverThreshold float64
	// DiscoverTTL evicts discovered domains no form has joined for this
	// long (ingests into the domain reset the clock). Zero: 15 minutes.
	// Negative: domains never expire (they still fall to MaxDomains).
	DiscoverTTL time.Duration
	// MaxDomains caps live discovered domains; discovering past the cap
	// evicts the least-recently-used domain. Zero: 64.
	MaxDomains int
}

// Server is the HTTP labeling service. Create with New; it is safe for
// concurrent use by the standard library's HTTP server.
type Server struct {
	cfg      Config
	sem      chan struct{}
	cache    *lru
	flights  *flightGroup
	metrics  *metrics
	sessions *sessionStore
	mux      *http.ServeMux

	// registry holds every servable lexicon version (see lexicons.go);
	// defaultID caches the content address of the optionless-request
	// lexicon, computed once (hashing the embedded lexicon is not free).
	registry      *qilabel.LexiconRegistry
	defaultIDOnce sync.Once
	defaultID     string

	// integrators caches one qilabel.Integrator per distinct request-option
	// combination: the server's lexicon, parallelism and stage observer are
	// fixed for its lifetime, so the comparable requestOptions struct fully
	// determines a configuration. Each handle's validation, lexicon freeze
	// and fingerprint are paid once per combination instead of per request.
	igMu  sync.Mutex
	igMap map[requestOptions]*qilabel.Integrator

	// discovery holds one online domain-discovery engine per lexicon
	// selection (see ingest.go), keyed by the resolved requestOptions
	// lexicon ("" = the server default) and created lazily on the first
	// /v1/ingest for that lexicon, so servers that never ingest pay
	// nothing and tenants never share a discovery partition.
	// discoverNow, when set before first use, overrides the engines'
	// clock (tests).
	discoverMu  sync.Mutex
	discovery   map[string]*discover.Engine
	discoverNow func() time.Time

	// testHookSlow, when set, runs inside every integration worker before
	// the pipeline; tests use it to hold requests in flight. testHookMissed
	// runs after an integration's cache probe misses, before it joins a
	// flight.
	testHookSlow   func()
	testHookMissed func()
	// testHookPipeline, when set, runs where a panic in the pipeline is
	// recovered: inside an integration's flight, a session delta and an
	// ingest, before the pipeline runs. Tests make it panic.
	testHookPipeline func()
}

// New builds a Server with the given configuration.
func New(cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	switch {
	case cfg.CacheSize == 0:
		cfg.CacheSize = 128
	case cfg.CacheSize < 0:
		cfg.CacheSize = 0
	}
	if cfg.Parallelism < 0 {
		cfg.Parallelism = 0
	}
	if cfg.MaxBatchItems <= 0 {
		cfg.MaxBatchItems = 64
	}
	switch {
	case cfg.SessionTTL == 0:
		cfg.SessionTTL = 15 * time.Minute
	case cfg.SessionTTL < 0:
		cfg.SessionTTL = 0 // no expiry
	}
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = 64
	}
	switch {
	case cfg.DiscoverTTL == 0:
		cfg.DiscoverTTL = 15 * time.Minute
	case cfg.DiscoverTTL < 0:
		cfg.DiscoverTTL = 0 // no expiry
	}
	if cfg.MaxDomains <= 0 {
		cfg.MaxDomains = 64
	}
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInflight),
		cache:   newLRU(cfg.CacheSize),
		flights: newFlightGroup(),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
		igMap:   make(map[requestOptions]*qilabel.Integrator),

		registry: qilabel.NewLexiconRegistry(cfg.MaxLexicons),
	}
	s.sessions = newSessionStore(cfg.SessionTTL, cfg.MaxSessions, func(n int) {
		s.metrics.sessionsEvicted.Add(int64(n))
	})
	s.route("POST /v1/integrate", "/v1/integrate", s.handleIntegrate)
	s.route("POST /v1/integrate/batch", "/v1/integrate/batch", s.handleBatch)
	s.route("POST /v1/extract", "/v1/extract", s.handleExtract)
	s.route("POST /v1/translate", "/v1/translate", s.handleTranslate)
	s.route("POST /v1/sessions", "/v1/sessions", s.handleSessionCreate)
	s.route("GET /v1/sessions/{id}", "/v1/sessions/{id}", s.handleSessionInfo)
	s.route("DELETE /v1/sessions/{id}", "/v1/sessions/{id}", s.handleSessionClose)
	s.route("POST /v1/sessions/{id}/sources", "/v1/sessions/{id}/sources", s.handleSessionAdd)
	s.route("PUT /v1/sessions/{id}/sources/{hash}", "/v1/sessions/{id}/sources/{hash}", s.handleSessionUpdate)
	s.route("DELETE /v1/sessions/{id}/sources/{hash}", "/v1/sessions/{id}/sources/{hash}", s.handleSessionRemove)
	s.route("GET /v1/sessions/{id}/result", "/v1/sessions/{id}/result", s.handleSessionResult)
	s.route("POST /v1/ingest", "/v1/ingest", s.handleIngest)
	s.route("GET /v1/domains/discovered", "/v1/domains/discovered", s.handleDiscovered)
	s.route("GET /v1/domains/discovered/{id}", "/v1/domains/discovered/{id}", s.handleDiscoveredDomain)
	s.route("GET /v1/domains", "/v1/domains", s.handleDomains)
	s.route("GET /v1/lexicons", "/v1/lexicons", s.handleLexiconList)
	s.route("PUT /v1/lexicons", "/v1/lexicons", s.handleLexiconPut)
	s.route("GET /v1/lexicons/report", "/v1/lexicons/report", s.handleLexiconReport)
	s.route("GET /v1/lexicons/{id}", "/v1/lexicons/{id}", s.handleLexiconGet)
	s.route("PUT /v1/lexicons/{id}", "/v1/lexicons/{id}", s.handleLexiconPutNamed)
	s.route("GET /healthz", "/healthz", s.handleHealthz)
	s.route("GET /metrics", "/metrics", s.handleMetrics)
	return s
}

// Handler returns the root handler to mount on an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// route registers a handler wrapped with per-endpoint instrumentation.
func (s *Server) route(pattern, label string, h http.HandlerFunc) {
	s.mux.Handle(pattern, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.record(label, sw.status, time.Since(start))
	}))
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// acquire claims a worker-pool slot without blocking. The returned release
// is idempotent.
func (s *Server) acquire() (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return s.releaser(), true
	default:
		return nil, false
	}
}

// acquireCtx claims a worker-pool slot, waiting until one frees or the
// context dies. The batch fan-out uses it: the batch already bounds its own
// parallelism, so its items queue for slots instead of failing fast.
func (s *Server) acquireCtx(ctx context.Context) (release func(), ok bool) {
	select {
	case s.sem <- struct{}{}:
		return s.releaser(), true
	case <-ctx.Done():
		return nil, false
	}
}

func (s *Server) releaser() func() {
	s.metrics.inflight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			<-s.sem
			s.metrics.inflight.Add(-1)
		})
	}
}

// ---- request/response shapes -------------------------------------------

// requestOptions mirrors the qilabel.Option set over JSON.
type requestOptions struct {
	// Matcher recomputes clusters from labels and instances (implied by
	// extraction, whose trees carry no annotations).
	Matcher bool `json:"matcher,omitempty"`
	// NoInstances disables the instance rules LI6/LI7.
	NoInstances bool `json:"noInstances,omitempty"`
	// MaxLevel caps the consistency levels (1–3; 0 = all).
	MaxLevel int `json:"maxLevel,omitempty"`
	// MinFrequency drops fields on fewer than N source interfaces.
	MinFrequency int `json:"minFrequency,omitempty"`
	// Lexicon selects the lexical knowledge base: a registered version ID
	// or alias, or empty for the server default. The X-Lexicon request
	// header fills an empty field. Handlers canonicalize the value to the
	// full content address (resolveLexicon) before anything — integrator
	// selection, cache keys, session state, discovery partitions — is
	// keyed on it, so an alias moving under hot reload never re-keys work
	// already resolved.
	Lexicon string `json:"lexicon,omitempty"`
}

// maxIntegrators bounds the per-options Integrator registry so adversarial
// option values (unbounded distinct MinFrequency settings, say) cannot grow
// it without limit; combinations past the cap get a working throwaway
// handle instead of a cached one.
const maxIntegrators = 64

// integrator returns the shared Integrator for the given request options,
// constructing and caching it on first use. Invalid combinations (MaxLevel
// out of range, negative MinFrequency) return the validation error and are
// never cached.
func (s *Server) integrator(o requestOptions) (*qilabel.Integrator, error) {
	s.igMu.Lock()
	defer s.igMu.Unlock()
	if ig, ok := s.igMap[o]; ok {
		return ig, nil
	}
	lex, err := s.requestLexicon(o)
	if err != nil {
		return nil, err
	}
	ig, err := qilabel.NewIntegrator(qilabel.Config{
		Lexicon:          lex,
		UseMatcher:       o.Matcher,
		DisableInstances: o.NoInstances,
		MaxLevel:         o.MaxLevel,
		MinFrequency:     o.MinFrequency,
		Parallelism:      s.cfg.Parallelism,
		Observer:         s.metrics.observeStage,
	})
	if err != nil {
		return nil, err
	}
	if len(s.igMap) < maxIntegrators {
		s.igMap[o] = ig
	}
	return ig, nil
}

// integrateRequest is a /v1/integrate body, or one item of a batch: inline
// source trees ("sources", qilabel JSON format) or a builtin corpus
// ("domain"), and options. It is decoded by hand (wire.go), which keeps
// the sources as the cache keys them rather than as trees.
type integrateRequest struct {
	// Domain selects a builtin evaluation corpus instead of sources.
	Domain  string
	Options requestOptions
	// sources are the walked "sources" array. Once the body is read, canon
	// is their canonical encoding, in buf or in the batch's buffer until
	// the request is answered, hashes their canonical hashes, and
	// nullSource the index of the first null source, or -1.
	sources    schema.RawTrees
	canon      []byte
	hashes     []string
	nullSource int
	buf        *[]byte
}

type reportJSON struct {
	Domain      string  `json:"domain,omitempty"`
	FldAcc      float64 `json:"fldAcc"`
	IntAcc      float64 `json:"intAcc"`
	HA          float64 `json:"ha"`
	HAPrime     float64 `json:"haPrime"`
	IntLeaves   int     `json:"intLeaves"`
	IntInternal int     `json:"intInternal"`
	IntDepth    int     `json:"intDepth"`
}

type integrateResponse struct {
	// Key identifies this integration in the result cache; pass it to
	// /v1/translate.
	Key string `json:"key"`
	// Cached reports whether the response was served from the cache
	// (match/merge/naming skipped).
	Cached bool `json:"cached"`
	// Coalesced reports that this request joined another identical request
	// already in flight and shares its result — the pipeline ran once for
	// all of them.
	Coalesced bool              `json:"coalesced,omitempty"`
	Class     string            `json:"class"`
	Labels    map[string]string `json:"labels"`
	Tree      *qilabel.Tree     `json:"tree"`
	// Text is the indented one-node-per-line rendering of the tree.
	Text   string         `json:"text"`
	Report reportJSON     `json:"report"`
	Rules  map[string]int `json:"ruleCounters"`
}

type extractRequest struct {
	// HTML is the raw page.
	HTML string `json:"html"`
	// Interface names the extracted interfaces when forms carry no
	// id/name attribute.
	Interface string `json:"interface,omitempty"`
	// Integrate pipes the extracted trees straight into integration with
	// the matcher.
	Integrate bool           `json:"integrate,omitempty"`
	Options   requestOptions `json:"options"`
}

type extractResponse struct {
	Trees []*qilabel.Tree `json:"trees"`
}

type translateRequest struct {
	// Key is the cache key of a prior /v1/integrate response.
	Key string `json:"key"`
	// Query assigns values to integrated fields by cluster name.
	Query map[string]string `json:"query"`
	// Lexicon optionally asserts which lexicon version the key belongs
	// to (the X-Lexicon header fills an empty field). Keys already pin
	// their lexicon via the fingerprint, so this is a tenant guard, not a
	// selector: a key minted under a different version answers 404.
	Lexicon string `json:"lexicon,omitempty"`
}

type assignmentJSON struct {
	Label       string   `json:"label"`
	Clusters    []string `json:"clusters"`
	Value       string   `json:"value"`
	Approximate bool     `json:"approximate,omitempty"`
}

type subQueryJSON struct {
	Interface   string           `json:"interface"`
	Assignments []assignmentJSON `json:"assignments"`
	Unsupported []string         `json:"unsupported,omitempty"`
}

type translateResponse struct {
	Key        string         `json:"key"`
	SubQueries []subQueryJSON `json:"subQueries"`
}

type domainInfo struct {
	Name       string `json:"name"`
	Interfaces int    `json:"interfaces"`
}

// ---- handlers -----------------------------------------------------------

func (s *Server) handleIntegrate(w http.ResponseWriter, r *http.Request) {
	var req integrateRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	canon, hashes, apiErr := resolveSources(&req)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	s.integrate(r, w, canon, hashes, req.Domain, req.Options)
}

// resolveSources returns the canonical encoding and hashes of a request's
// sources: its inline sources or a builtin corpus. Endpoint-independent:
// the single and batch handlers both use it, rendering the error their
// own way.
func resolveSources(req *integrateRequest) ([]byte, []string, *apiError) {
	switch {
	case req.Domain != "" && req.sources.Len() > 0:
		return nil, nil, &apiError{http.StatusBadRequest, codeBadRequest, "specify either sources or domain, not both"}
	case req.Domain != "":
		set, err := builtinSources(req.Domain)
		if err != nil {
			return nil, nil, &apiError{http.StatusBadRequest, codeBadRequest, err.Error()}
		}
		return set.canon, set.hashes, nil
	case req.sources.Len() > 0:
		if req.nullSource >= 0 {
			// The pipeline would reject it too, but the cache key is
			// computed first, and a null source has no encoding to hash.
			var t *qilabel.Tree
			return nil, nil, &apiError{http.StatusBadRequest, codeBadRequest,
				fmt.Sprintf("qilabel: source %d: %v", req.nullSource, t.Validate())}
		}
		return req.canon, req.hashes, nil
	default:
		return nil, nil, &apiError{http.StatusBadRequest, codeBadRequest, "no source interfaces: provide sources or a builtin domain"}
	}
}

// builtinSet is a builtin corpus as an integrate body's sources are
// keyed: its canonical encoding and hashes.
type builtinSet struct {
	canon  []byte
	hashes []string
}

// builtinSets encodes every builtin corpus once per process, keyed by
// dataset.Key of its name: the corpora are constant.
var builtinSets = sync.OnceValue(func() map[string]builtinSet {
	sets := make(map[string]builtinSet)
	for _, d := range dataset.Domains() {
		canon, hashes := schema.EncodeCanonical(d.Generate())
		sets[dataset.Key(d.Name)] = builtinSet{canon, hashes}
	}
	return sets
})

// builtinSources returns the builtin corpus a request names, matched as
// qilabel.BuiltinDomain matches names.
func builtinSources(name string) (builtinSet, error) {
	if set, ok := builtinSets()[dataset.Key(name)]; ok {
		return set, nil
	}
	_, err := dataset.ByName(name)
	return builtinSet{}, err
}

// integrate serves one integration request through the shared coalesced
// path: warm keys come straight from the cache, cold keys join (or lead)
// the flight for their key. A timed-out or disconnected request answers
// immediately, but the shared run keeps going while other requests still
// wait on it; only the last waiter leaving cancels the pipeline.
func (s *Server) integrate(r *http.Request, w http.ResponseWriter, canon []byte, hashes []string, domain string, ropts requestOptions) {
	ropts, apiErr := s.resolveLexicon(lexiconFromRequest(r, ropts))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	ig, err := s.integrator(ropts)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	e, status, apiErr := s.integrateShared(r.Context(), newPending(ig, canon, hashes, domain, ropts), false)
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	writeReply(w, e, status)
}

// complete builds the entry of a cold integration — its reply and the
// translation index of its expanded sources — feeds the rule counters
// into the metrics registry and caches the entry, exactly once per flight
// however many requests coalesced onto it. It reads the result only: the
// reply carries no statistic of the request's own trees.
func (s *Server) complete(p *pending, res *qilabel.Result) *cacheEntry {
	rep := res.Report(p.domain, nil)
	resp := integrateResponse{
		Key:    p.key,
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
	s.metrics.addRules(res.Naming.Counters)
	e := newCacheEntry(resp, p.domain, p.ropts, p.canon, p.hashes)
	e.index = res.TranslationIndex()
	s.cache.Put(p.key, e)
	return e
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req extractRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.HTML == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no html in request body")
		return
	}
	iface := req.Interface
	if iface == "" {
		iface = "form"
	}
	trees := qilabel.ExtractForms([]byte(req.HTML), iface)
	if len(trees) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no <form> elements found in the page")
		return
	}
	if !req.Integrate {
		writeJSON(w, http.StatusOK, extractResponse{Trees: trees})
		return
	}
	// Extracted trees carry no cluster annotations; the matcher is
	// mandatory on this path.
	req.Options.Matcher = true
	canon, hashes := schema.EncodeCanonical(trees)
	s.integrate(r, w, canon, hashes, "", req.Options)
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	var req translateRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Key == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest, "no cache key; integrate first and pass the returned key")
		return
	}
	entry, ok := s.cache.Get(req.Key)
	if !ok {
		s.metrics.cacheMisses.Add(1)
		writeError(w, http.StatusNotFound, codeNotFound,
			"unknown or evicted integration key; re-run /v1/integrate and retry")
		return
	}
	if sel := lexiconFromRequest(r, requestOptions{Lexicon: req.Lexicon}); sel.Lexicon != "" {
		resolved, apiErr := s.resolveLexicon(sel)
		if apiErr != nil {
			writeAPIError(w, apiErr)
			return
		}
		if resolved.Lexicon != entry.options.Lexicon {
			s.metrics.cacheMisses.Add(1)
			writeError(w, http.StatusNotFound, codeNotFound,
				"integration key was minted under a different lexicon version; re-run /v1/integrate with this lexicon")
			return
		}
	}
	s.metrics.cacheHits.Add(1)
	s.metrics.recordLexicon(lexiconLabel(entry.options.Lexicon), statusHit)
	ix := entry.index
	if ix == nil {
		// The entry was restored from a disk snapshot, which carries the
		// response but not the translation index. Recompute it once from
		// the persisted sources (the pipeline is deterministic, so the
		// result is the one the key names) and re-cache the rehydrated
		// entry.
		var apiErr *apiError
		ix, apiErr = s.rehydrate(r.Context(), req.Key, entry)
		if apiErr != nil {
			writeAPIError(w, apiErr)
			return
		}
	}
	subs := ix.Translate(req.Query)
	resp := translateResponse{Key: req.Key}
	for _, sub := range subs {
		sj := subQueryJSON{
			Interface:   sub.Interface,
			Assignments: []assignmentJSON{},
			Unsupported: sub.Unsupported,
		}
		for _, a := range sub.Assignments {
			sj.Assignments = append(sj.Assignments, assignmentJSON{
				Label:       a.Label,
				Clusters:    a.Clusters,
				Value:       a.Value,
				Approximate: a.Approximate,
			})
		}
		resp.SubQueries = append(resp.SubQueries, sj)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDomains(w http.ResponseWriter, r *http.Request) {
	var list []domainInfo
	for _, d := range dataset.Domains() {
		list = append(list, domainInfo{Name: d.Name, Interfaces: len(builtinSets()[dataset.Key(d.Name)].hashes)})
	}
	writeJSON(w, http.StatusOK, map[string][]domainInfo{"domains": list})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.metrics.snapshot(s.cache.Len(), s.cfg.CacheSize, s.sessions.active())
	snap.Cache.Bytes = s.cache.Bytes()
	snap.Warm = warmSnapshotOf(s.warmStats())
	snap.Discovery = discoverySnapshotOf(s.discoveryEngines(), s.cfg.DiscoverThreshold)
	snap.Lexicons = s.lexiconsMetrics()
	writeJSON(w, http.StatusOK, snap)
}

// warmStats snapshots the warm-cache counters of every cached Integrator.
func (s *Server) warmStats() []qilabel.WarmStats {
	s.igMu.Lock()
	defer s.igMu.Unlock()
	stats := make([]qilabel.WarmStats, 0, len(s.igMap))
	for _, ig := range s.igMap {
		stats = append(stats, ig.WarmStats())
	}
	return stats
}

// ---- plumbing -----------------------------------------------------------

// decode reads the whole request body under the configured size limit and
// decodes its first JSON value (see wire.go), answering 413 when the body
// exceeds the limit and 400 with the parse error otherwise.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	buf, err := readBody(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength)
	if err == nil {
		err = decodeRequest(buf.Bytes(), v)
	}
	bodyBuffers.Put(buf)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes))
		} else {
			writeError(w, http.StatusBadRequest, codeBadRequest, "malformed request body: "+err.Error())
		}
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// Stable machine-readable error codes carried in the error envelope.
// Clients branch on these; the HTTP status and human message may evolve.
const (
	codeBadRequest = "bad_request"
	codeTooLarge   = "too_large"
	codeSaturated  = "saturated"
	codeTimeout    = "timeout"
	codeCanceled   = "canceled"
	codeNotFound   = "not_found"
	codeInternal   = "internal"
)

// statusClientClosedRequest is nginx's de-facto standard status for a
// request the client abandoned; net/http has no constant for it.
const statusClientClosedRequest = 499

// errorEnvelope is the uniform error shape of every /v1/* endpoint.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

type errorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, errorEnvelope{Error: errorBody{Code: code, Message: msg}})
}

// writeAPIError renders an endpoint-independent error, attaching the
// Retry-After hint saturation responses carry.
func writeAPIError(w http.ResponseWriter, e *apiError) {
	if e.status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeError(w, e.status, e.code, e.msg)
}
