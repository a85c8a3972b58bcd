package server

import (
	"io"
	"net/http"
	"regexp"

	"qilabel"
	"qilabel/internal/schema"
)

// Versioned lexicons over HTTP: the server owns a qilabel.LexiconRegistry
// and serves any registered version side by side — the multi-tenant
// story. Every request may select a lexicon by content address or alias
// (the `lexicon` option field, or the X-Lexicon header); the server
// canonicalizes the selection to the full version ID *before* anything is
// keyed on it, so integrators, the result LRU (via Config.Fingerprint →
// CacheKey), warm caches, sessions, snapshots and discovery all namespace
// per version with no possibility of cross-tenant bleed: two tenants
// share a cache entry exactly when their lexicons hold identical facts —
// in which case the entries are byte-identical anyway.
//
//	GET  /v1/lexicons               list registered versions and aliases
//	PUT  /v1/lexicons               register an artifact or plain lexicon
//	                                JSON body; returns the version ID
//	PUT  /v1/lexicons/{id}          register the body and point alias {id}
//	                                at it ({id} may also be the content
//	                                address itself, which is verified)
//	GET  /v1/lexicons/{id}          export one version as a self-verifying
//	                                content-addressed artifact
//	GET  /v1/lexicons/report?from=&to=
//	                                upgrade report: the factual diff
//	                                between two versions plus which cached
//	                                results moving traffic from→to
//	                                invalidates
//
// Hot reload: a registry bound to a directory (qilabeld -lexicon-dir)
// re-scans it on ReloadLexicons (qilabeld -lexicon-reload ticker) and
// lazily when a request names an alias the registry does not know yet —
// dropping a file into the directory makes it servable without a restart.
// Versions are immutable, so a reload can only add versions and move
// aliases; requests already resolved keep running on the exact version
// they pinned.

// hexID matches a full SHA-256 content address.
var hexID = regexp.MustCompile(`^[0-9a-f]{64}$`)

// lexiconFromRequest applies the X-Lexicon header as a fallback for an
// options field left empty, so clients can route by header alone.
func lexiconFromRequest(r *http.Request, o requestOptions) requestOptions {
	if o.Lexicon == "" && r != nil {
		o.Lexicon = r.Header.Get("X-Lexicon")
	}
	return o
}

// resolveLexicon canonicalizes o.Lexicon to the full content address of
// the version it names (resolving aliases), rescanning the lexicon
// directory once on a miss so freshly dropped files resolve without a
// restart. The empty selection — and any selection resolving to the
// server's default lexicon — stays "", keeping one cache namespace for
// the default however it is spelled.
func (s *Server) resolveLexicon(o requestOptions) (requestOptions, *apiError) {
	if o.Lexicon == "" {
		return o, nil
	}
	id, _, err := s.registry.Resolve(o.Lexicon)
	if err != nil {
		if _, rerr := s.registry.Rescan(); rerr == nil {
			id, _, err = s.registry.Resolve(o.Lexicon)
		}
	}
	if err != nil {
		return o, &apiError{http.StatusNotFound, codeNotFound,
			"unknown lexicon " + o.Lexicon + "; register it with PUT /v1/lexicons or list GET /v1/lexicons"}
	}
	if id == s.defaultLexiconID() {
		id = ""
	}
	o.Lexicon = id
	return o, nil
}

// defaultLexiconID is the content address of the lexicon an optionless
// request runs on: the configured override, or the embedded default.
func (s *Server) defaultLexiconID() string {
	s.defaultIDOnce.Do(func() {
		if s.cfg.Lexicon != nil {
			s.defaultID = s.cfg.Lexicon.VersionID()
			return
		}
		s.defaultID = qilabel.DefaultLexicon().VersionID()
	})
	return s.defaultID
}

// requestLexicon maps a *resolved* options value back to the lexicon the
// integrator will run on (nil: the server default). It cannot miss for
// values produced by resolveLexicon, but persisted snapshot entries carry
// ids from an earlier process, so the error path stays live.
func (s *Server) requestLexicon(o requestOptions) (*qilabel.Lexicon, error) {
	if o.Lexicon == "" {
		return s.cfg.Lexicon, nil
	}
	_, lex, err := s.registry.Resolve(o.Lexicon)
	return lex, err
}

// lexiconLabel is the /metrics label of a resolved selection.
func lexiconLabel(resolved string) string {
	if resolved == "" {
		return qilabel.DefaultLexiconAlias
	}
	return resolved
}

// LoadLexiconDir binds the server's lexicon registry to dir and loads
// every *.json file in it (file base names become aliases). Partial
// failures load the good files and return the error for logging.
func (s *Server) LoadLexiconDir(dir string) (int, error) {
	return s.registry.LoadDir(dir)
}

// ReloadLexicons rescans the bound lexicon directory — hot reload. Safe
// under full traffic: in-flight requests keep the versions they resolved.
func (s *Server) ReloadLexicons() (int, error) {
	return s.registry.Rescan()
}

// LexiconRegistry exposes the server's registry (tests and embedders).
func (s *Server) LexiconRegistry() *qilabel.LexiconRegistry { return s.registry }

// lexiconsMetrics composes the /metrics lexicon section from the
// registry gauges and the per-version traffic columns.
func (s *Server) lexiconsMetrics() lexiconsSnapshot {
	st := s.registry.Stats()
	return lexiconsSnapshot{
		Versions:   st.Versions,
		Aliases:    st.Aliases,
		Puts:       st.Puts,
		Evictions:  st.Evictions,
		Reloads:    st.Reloads,
		PerLexicon: s.metrics.lexiconUsage(),
	}
}

// ---- request/response shapes -------------------------------------------

type lexiconListResponse struct {
	// Lexicons lists every registered version, the default first.
	Lexicons []qilabel.LexiconVersion `json:"lexicons"`
	// Default is the content address an optionless request runs on (the
	// -lexicon override when configured, else the embedded default).
	Default string `json:"default"`
}

type lexiconPutResponse struct {
	// ID is the verified content address of the registered version.
	ID    string `json:"id"`
	Short string `json:"short"`
	// Alias echoes the alias the PUT bound, if any.
	Alias string `json:"alias,omitempty"`
}

// lexiconReportEntry is one cached result the upgrade touches.
type lexiconReportEntry struct {
	// Key is the entry's cache key under the old version; NewKey the key
	// the same sources produce under the new version.
	Key    string `json:"key"`
	NewKey string `json:"newKey"`
	Domain string `json:"domain,omitempty"`
	// Invalidated is true when NewKey is cold: moving this traffic to the
	// new version pays a fresh pipeline run.
	Invalidated bool `json:"invalidated"`
}

type lexiconReportResponse struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Identical is true when both names resolve to the same facts (equal
	// content addresses): the upgrade is a no-op and invalidates nothing.
	Identical bool                `json:"identical"`
	Diff      qilabel.LexiconDiff `json:"diff"`
	// CachedResults lists every result-cache entry currently keyed under
	// the old version; Invalidated counts the ones cold under the new.
	CachedResults []lexiconReportEntry `json:"cachedResults"`
	Invalidated   int                  `json:"invalidated"`
}

// ---- handlers -----------------------------------------------------------

func (s *Server) handleLexiconList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, lexiconListResponse{
		Lexicons: s.registry.List(),
		Default:  s.defaultLexiconID(),
	})
}

func (s *Server) handleLexiconPut(w http.ResponseWriter, r *http.Request) {
	s.putLexicon(w, r, "")
}

func (s *Server) handleLexiconPutNamed(w http.ResponseWriter, r *http.Request) {
	s.putLexicon(w, r, r.PathValue("id"))
}

// putLexicon registers the request body (artifact or plain lexicon JSON)
// and, when name is neither empty nor the resulting content address,
// binds it as an alias. A name that *looks* like a content address but
// does not match the body's is rejected: content addresses are facts,
// not labels.
func (s *Server) putLexicon(w http.ResponseWriter, r *http.Request, name string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, codeTooLarge,
			"lexicon body exceeds the request size limit")
		return
	}
	id, err := s.registry.PutArtifact(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
		return
	}
	resp := lexiconPutResponse{ID: id, Short: id[:12]}
	switch {
	case name == "" || name == id:
		// Registered by content alone.
	case hexID.MatchString(name):
		writeError(w, http.StatusConflict, codeBadRequest,
			"body addresses to "+id+", not "+name+"; content addresses cannot be reassigned")
		return
	default:
		if err := s.registry.SetAlias(name, id); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
			return
		}
		resp.Alias = name
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleLexiconGet(w http.ResponseWriter, r *http.Request) {
	_, lex, err := s.registry.Resolve(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound,
			"unknown lexicon "+r.PathValue("id")+"; list GET /v1/lexicons for registered versions")
		return
	}
	data, err := lex.EncodeArtifact()
	if err != nil {
		writeError(w, http.StatusInternalServerError, codeBadRequest, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleLexiconReport diffs two versions and lists which cached results
// the upgrade invalidates: every result-cache entry keyed under `from`
// is re-keyed under `to` from the source hashes the entry keeps, and an
// entry whose new key is cold will pay a fresh pipeline
// run when its traffic moves.
func (s *Server) handleLexiconReport(w http.ResponseWriter, r *http.Request) {
	fromName, toName := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if toName == "" {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			"missing ?to=<version|alias>; ?from= defaults to the server default lexicon")
		return
	}
	fromID, fromLex, err := s.resolveReportName(fromName)
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, "from: "+err.Error())
		return
	}
	toID, toLex, err := s.resolveReportName(toName)
	if err != nil {
		writeError(w, http.StatusNotFound, codeNotFound, "to: "+err.Error())
		return
	}
	resp := lexiconReportResponse{
		From:          fromID,
		To:            toID,
		Identical:     fromID == toID,
		Diff:          qilabel.DiffLexicons(fromLex, toLex),
		CachedResults: []lexiconReportEntry{},
	}
	if resp.Identical {
		writeJSON(w, http.StatusOK, resp)
		return
	}

	// Re-key every cached entry of the old version under the new one.
	toSelector := toID
	if toID == s.defaultLexiconID() {
		toSelector = ""
	}
	keys, entries := s.cache.Dump()
	for i, e := range entries {
		entryID := e.options.Lexicon
		if entryID == "" {
			entryID = s.defaultLexiconID()
		}
		if entryID != fromID || len(e.hashes) == 0 {
			continue
		}
		ropts := e.options
		ropts.Lexicon = toSelector
		ig, igErr := s.integrator(ropts)
		if igErr != nil {
			continue
		}
		newKey := schema.CacheKey(e.digests(), ig.Fingerprint())
		entry := lexiconReportEntry{
			Key:         keys[i],
			NewKey:      newKey,
			Domain:      e.domain,
			Invalidated: !s.cache.Has(newKey),
		}
		if entry.Invalidated {
			resp.Invalidated++
		}
		resp.CachedResults = append(resp.CachedResults, entry)
	}
	writeJSON(w, http.StatusOK, resp)
}

// resolveReportName resolves an upgrade-report operand: empty names the
// server default, anything else a registered version or alias.
func (s *Server) resolveReportName(name string) (string, *qilabel.Lexicon, error) {
	if name == "" {
		if s.cfg.Lexicon != nil {
			return s.defaultLexiconID(), s.cfg.Lexicon, nil
		}
		return s.defaultLexiconID(), qilabel.DefaultLexicon(), nil
	}
	id, lex, err := s.registry.Resolve(name)
	if err != nil {
		if _, rerr := s.registry.Rescan(); rerr == nil {
			id, lex, err = s.registry.Resolve(name)
		}
	}
	if err != nil {
		return "", nil, err
	}
	// A name resolving to the server default under a -lexicon override
	// still reports against the registry's copy (same facts, same id).
	if s.cfg.Lexicon != nil && id == s.defaultLexiconID() {
		return id, s.cfg.Lexicon, nil
	}
	return id, lex, nil
}
