package server

import (
	"context"
	"errors"
	"net/http"

	"qilabel"
	"qilabel/internal/discover"
	"qilabel/internal/schema"
)

// Online domain discovery over HTTP: forms arrive one page (or one tree)
// at a time with no domain attached, and the server clusters them into
// domains by field-label semantics, re-integrating a discovered domain
// on every membership change.
//
//	POST /v1/ingest                    raw HTML page (every <form> is
//	                                   ingested) or one source tree in,
//	                                   per-form domain assignments out
//	GET  /v1/domains/discovered        all live domains with their
//	                                   integration key, classification
//	                                   and cluster summaries
//	GET  /v1/domains/discovered/{id}   one live domain
//
// The discovery engine is server-owned state bounded like sessions: an
// idle TTL (a domain no form has joined for DiscoverTTL is evicted
// lazily, forgetting its forms) and a domain cap (discovering past
// MaxDomains evicts the least-recently-used domain). Clients must treat
// a 404 on a known domain ID as eviction — or as a merge: domain IDs are
// canonical (the minimum member form hash), so a merge or the arrival of
// a smaller-hash member moves the domain to a new ID. The listing is the
// source of truth.
//
// Cache interop: every ingest publishes the touched domain's integration
// into the result LRU under its qilabel.CacheKey — exactly the key a
// /v1/integrate of the member set computes — so /v1/translate works
// against discovered domains and, with -cache-file, their labelings ride
// the snapshot across restarts. The similarity threshold never enters
// those keys (it shapes the partition, not the integration), so a batch
// integration of the same sources is a warm hit whatever threshold
// discovered the domain.

// discoverEngine returns the discovery engine of one lexicon selection
// (ropts.Lexicon, already resolved to a content address; "" = server
// default), creating it on first use. Engines are per-lexicon because a
// domain partition computed under one vocabulary is meaningless — and a
// tenant-isolation leak — under another; the matcher-mode Integrator
// each engine runs on is shared with that lexicon's matcher requests, so
// warm caches still serve both paths.
func (s *Server) discoverEngine(ropts requestOptions) (*discover.Engine, error) {
	ropts = requestOptions{Matcher: true, Lexicon: ropts.Lexicon}
	s.discoverMu.Lock()
	defer s.discoverMu.Unlock()
	if e, ok := s.discovery[ropts.Lexicon]; ok {
		return e, nil
	}
	ig, err := s.integrator(ropts)
	if err != nil {
		return nil, err
	}
	e, err := discover.New(discover.Config{
		Integrator: ig,
		Threshold:  s.cfg.DiscoverThreshold,
		TTL:        s.cfg.DiscoverTTL,
		MaxDomains: s.cfg.MaxDomains,
		Now:        s.discoverNow,
	})
	if err != nil {
		return nil, err
	}
	if s.discovery == nil {
		s.discovery = make(map[string]*discover.Engine)
	}
	s.discovery[ropts.Lexicon] = e
	return e, nil
}

// discoveryEngines returns every started engine without creating any —
// the /metrics and listing paths, which must not allocate state as a
// side effect.
func (s *Server) discoveryEngines() []*discover.Engine {
	s.discoverMu.Lock()
	defer s.discoverMu.Unlock()
	out := make([]*discover.Engine, 0, len(s.discovery))
	for _, e := range s.discovery {
		out = append(out, e)
	}
	return out
}

// ---- request/response shapes -------------------------------------------

type ingestRequest struct {
	// HTML is a raw page; every <form> it contains is ingested.
	HTML string `json:"html,omitempty"`
	// Interface names extracted interfaces when forms carry no id/name
	// attribute (default "form").
	Interface string `json:"interface,omitempty"`
	// Source ingests one interface tree directly instead of HTML.
	Source *qilabel.Tree `json:"source,omitempty"`
	// Lexicon selects the lexical knowledge base (version ID or alias;
	// the X-Lexicon header fills an empty field). Each lexicon owns its
	// own discovery partition.
	Lexicon string `json:"lexicon,omitempty"`
}

// ingestAssignment is the wire form of one form's discover.Assignment.
type ingestAssignment struct {
	Interface  string   `json:"interface"`
	FormHash   string   `json:"formHash"`
	Domain     string   `json:"domain"`
	New        bool     `json:"new,omitempty"`
	Duplicate  bool     `json:"duplicate,omitempty"`
	Merged     []string `json:"merged,omitempty"`
	Sources    int      `json:"sources"`
	Similarity float64  `json:"similarity"`
	// Key is the domain's integration cache key; pass it to /v1/translate.
	Key string `json:"key"`
}

type ingestResponse struct {
	Assignments []ingestAssignment `json:"assignments"`
	// Domains is the live domain count after the request.
	Domains int `json:"domains"`
}

type discoveredClusterJSON struct {
	Name      string   `json:"name"`
	Label     string   `json:"label,omitempty"`
	Frequency int      `json:"frequency"`
	Labels    []string `json:"labels"`
}

type discoveredDomainJSON struct {
	ID       string                  `json:"id"`
	Sources  int                     `json:"sources"`
	Forms    []string                `json:"forms"`
	Key      string                  `json:"key"`
	Class    string                  `json:"class"`
	Clusters []discoveredClusterJSON `json:"clusters"`
}

type discoveredResponse struct {
	Domains []discoveredDomainJSON `json:"domains"`
	// Threshold is the effective similarity threshold the partition was
	// discovered under.
	Threshold float64 `json:"threshold"`
}

// ---- handlers -----------------------------------------------------------

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	if !s.decode(w, r, &req) {
		return
	}
	var forms []*qilabel.Tree
	switch {
	case req.HTML != "" && req.Source != nil:
		writeError(w, http.StatusBadRequest, codeBadRequest, "specify either html or source, not both")
		return
	case req.HTML != "":
		iface := req.Interface
		if iface == "" {
			iface = "form"
		}
		forms = qilabel.ExtractForms([]byte(req.HTML), iface)
		if len(forms) == 0 {
			writeError(w, http.StatusBadRequest, codeBadRequest, "no <form> elements found in the page")
			return
		}
	case req.Source != nil:
		forms = []*qilabel.Tree{req.Source}
	default:
		writeError(w, http.StatusBadRequest, codeBadRequest, "nothing to ingest: provide html or source")
		return
	}
	for _, t := range forms {
		if err := t.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, codeBadRequest, "invalid source tree: "+err.Error())
			return
		}
	}
	ropts, apiErr := s.resolveLexicon(lexiconFromRequest(r, requestOptions{Matcher: true, Lexicon: req.Lexicon}))
	if apiErr != nil {
		writeAPIError(w, apiErr)
		return
	}
	eng, err := s.discoverEngine(ropts)
	if err != nil {
		writeError(w, http.StatusBadRequest, codeBadRequest, err.Error())
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
	resp := ingestResponse{Assignments: make([]ingestAssignment, 0, len(forms))}
	touched := make(map[string]bool)
	for _, t := range forms {
		a, err := eng.Ingest(ctx, t)
		if err != nil {
			writeAPIError(w, s.apiErrorFor(err))
			return
		}
		if !a.Duplicate {
			touched[a.Domain] = true
		}
		resp.Assignments = append(resp.Assignments, ingestAssignment{
			Interface:  t.Interface,
			FormHash:   a.FormHash,
			Domain:     a.Domain,
			New:        a.New,
			Duplicate:  a.Duplicate,
			Merged:     a.Merged,
			Sources:    a.Sources,
			Similarity: a.Similarity,
			Key:        a.Key,
		})
		resp.Domains = a.Domains
	}
	// Publish each touched domain's integration into the result cache so
	// /v1/translate (and the snapshot file) see it. A later ingest into
	// the same domain publishes the newer state under its own key.
	for id := range touched {
		if err := s.publishDomain(eng, ropts, id); err != nil && !errors.Is(err, discover.ErrUnknownDomain) {
			writeAPIError(w, s.apiErrorFor(err))
			return
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// publishDomain caches one discovered domain's current integration under
// its canonical key (namespaced by the engine's lexicon via the
// fingerprint). Unknown IDs are ignored by callers: the domain may have
// been merged away or evicted by a concurrent ingest.
func (s *Server) publishDomain(eng *discover.Engine, ropts requestOptions, id string) error {
	res, key, sources, err := eng.Result(id)
	if err != nil {
		return err
	}
	if _, hit := s.cache.Get(key); hit {
		return nil
	}
	canon, hashes := schema.EncodeCanonical(sources)
	s.complete(&pending{key: key, ropts: requestOptions{Matcher: true, Lexicon: ropts.Lexicon}, canon: canon, hashes: hashes}, res)
	return nil
}

func (s *Server) handleDiscovered(w http.ResponseWriter, r *http.Request) {
	// With nothing ingested yet this is an empty listing, not an error,
	// and the threshold reported is the one ingestion would run with.
	thr := s.cfg.DiscoverThreshold
	if thr == 0 {
		thr = discover.DefaultThreshold
	}
	resp := discoveredResponse{Domains: []discoveredDomainJSON{}, Threshold: thr}
	for _, eng := range s.discoveryEngines() {
		infos, err := eng.Domains()
		if err != nil {
			writeAPIError(w, s.apiErrorFor(err))
			return
		}
		resp.Threshold = eng.Threshold()
		for _, info := range infos {
			resp.Domains = append(resp.Domains, domainJSONOf(info))
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDiscoveredDomain(w http.ResponseWriter, r *http.Request) {
	for _, eng := range s.discoveryEngines() {
		info, err := eng.Domain(r.PathValue("id"))
		if errors.Is(err, discover.ErrUnknownDomain) {
			continue
		}
		if err != nil {
			writeAPIError(w, s.apiErrorFor(err))
			return
		}
		writeJSON(w, http.StatusOK, domainJSONOf(info))
		return
	}
	writeDomainNotFound(w)
}

func domainJSONOf(info discover.DomainInfo) discoveredDomainJSON {
	d := discoveredDomainJSON{
		ID:       info.ID,
		Sources:  info.Sources,
		Forms:    info.Forms,
		Key:      info.Key,
		Class:    info.Class,
		Clusters: make([]discoveredClusterJSON, 0, len(info.Clusters)),
	}
	for _, c := range info.Clusters {
		d.Clusters = append(d.Clusters, discoveredClusterJSON{
			Name:      c.Name,
			Label:     c.Label,
			Frequency: c.Frequency,
			Labels:    c.Labels,
		})
	}
	return d
}

func writeDomainNotFound(w http.ResponseWriter) {
	writeError(w, http.StatusNotFound, codeNotFound,
		"unknown, merged or evicted domain id; list GET /v1/domains/discovered for live IDs")
}

// discoverySnapshotOf renders the engines' statistics for /metrics,
// summed across every per-lexicon partition; no engines (nothing
// ingested yet) yields the zero section with the configured threshold.
func discoverySnapshotOf(engines []*discover.Engine, cfgThreshold float64) discoverySnapshot {
	d := discoverySnapshot{Threshold: cfgThreshold}
	if d.Threshold == 0 {
		d.Threshold = discover.DefaultThreshold
	}
	for _, eng := range engines {
		st := eng.Stats()
		d.Threshold = eng.Threshold()
		d.Active += st.Domains
		d.Forms += st.Forms
		d.Ingested += st.Ingested
		d.Duplicates += st.Duplicates
		d.Created += st.Created
		d.Merged += st.Merged
		d.Evicted += st.Evicted
	}
	return d
}
