// Package discover implements online domain discovery: raw query-interface
// forms arrive one at a time, each is assigned to a domain by clustering
// over field-label semantics, and every domain holds its member forms and
// the integration of them. Each membership change re-integrates the
// domain in one pipeline run on the Integrator, so the domain's
// integrated, labeled interface grows with each ingested form.
//
// The paper treats labeling as a batch job over a known domain; related
// work (The Ontological Key, VIQI) frames form understanding as an ongoing
// ingestion pipeline. This package is the bridge: "label this set" becomes
// a continuously learning integrator.
//
// # The partition contract
//
// The domain partition is defined as the connected components of the
// similarity graph over all live forms: two forms are adjacent when their
// label-set relatedness (see similarity) reaches the configured threshold.
// Because the graph depends only on the set of forms seen — never on the
// order they arrived — the partition, the per-domain member sets, and
// therefore the per-domain integrated trees (each a batch Integrate of its
// member set) are all invariant under stream-order permutation. When a
// new form bridges two or more existing domains, those domains merge into
// one. Re-ingesting an already-seen form (same canonical hash) is a no-op
// on every domain.
//
// Domain identifiers are canonical, not sticky: a domain's ID is the
// minimum canonical hash of its member forms, so it is a pure function of
// the member set. A merge (or the arrival of a smaller-hash member)
// changes the ID; clients treat the listing as the source of truth.
package discover

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qilabel"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// DefaultThreshold is the similarity threshold used when Config.Threshold
// is zero. Same-domain forms typically score near 1 − dropout (each field
// finds its counterpart by synonymy); unrelated domains with disjoint
// synonym closures score near zero, with occasional stray hypernym links.
// 0.4 separates the two regimes with margin on both sides.
const DefaultThreshold = 0.4

// Config tunes an Engine.
type Config struct {
	// Integrator supplies the per-domain labeling configuration; every
	// domain is integrated on it (required). Its Observer receives the
	// stages of every ingest's run, called while the engine holds its
	// lock, so it must not call the engine. Discovery of raw
	// extracted forms needs Config.UseMatcher — extracted trees carry no
	// cluster annotations.
	Integrator *qilabel.Integrator
	// Threshold is the similarity level at which two forms belong to the
	// same domain, in (0, 1]. Zero selects DefaultThreshold. The threshold
	// shapes the partition only — it never participates in result cache
	// keys (qilabel.Fingerprint), so a domain's integration is shared with
	// any batch Integrate of the same sources whatever threshold found it.
	Threshold float64
	// TTL evicts domains idle for longer than this (every ingest into the
	// domain resets the clock). Zero: domains never expire. Evicting a
	// domain forgets its forms: re-ingesting them rediscovers the domain.
	TTL time.Duration
	// MaxDomains caps live domains; discovering past the cap evicts the
	// least-recently-used domain first. Zero: unbounded.
	MaxDomains int
	// Now overrides the clock (tests). Nil: time.Now.
	Now func() time.Time
	// OnEvict, when non-nil, observes each eviction sweep: how many
	// domains and how many tracked forms were dropped.
	OnEvict func(domains, forms int)
}

// Stats are the engine's lifetime counters plus the live gauges.
type Stats struct {
	// Domains and Forms are the live gauges (after a TTL sweep).
	Domains int
	Forms   int
	// Ingested counts accepted ingest operations (duplicates included);
	// Duplicates the subset that were no-ops on an already-seen form.
	Ingested   uint64
	Duplicates uint64
	// Created counts domains founded by a form no existing domain
	// claimed; Merged counts pre-existing domains absorbed when a form
	// bridged two or more of them; Evicted counts domains dropped by TTL
	// or the MaxDomains cap.
	Created uint64
	Merged  uint64
	Evicted uint64
}

// Assignment reports where one ingested form landed.
type Assignment struct {
	// FormHash is the form's canonical tree hash — the identity the no-op
	// guarantee keys on.
	FormHash string
	// Domain is the canonical ID of the domain the form belongs to after
	// the operation.
	Domain string
	// New reports that the form founded a new domain; Duplicate that the
	// form was already known and nothing changed.
	New       bool
	Duplicate bool
	// Merged lists the IDs of the pre-existing domains this form fused
	// into Domain (empty unless the form bridged two or more domains).
	Merged []string
	// Sources is the domain's member count after the operation.
	Sources int
	// Similarity is the best member similarity observed during
	// assignment (zero for the first form and for duplicates).
	Similarity float64
	// Key is the domain's integration cache key — exactly the key a
	// /v1/integrate of the member set computes, so /v1/translate works
	// against the published result.
	Key string
	// Domains is the live domain count after the operation.
	Domains int
}

// DomainInfo is one live domain in the engine's listing.
type DomainInfo struct {
	// ID is the canonical domain identifier: the minimum canonical hash
	// over the member forms.
	ID string
	// Sources is the member count; Forms lists the member canonical
	// hashes in sorted order.
	Sources int
	Forms   []string
	// Key is the member set's integration cache key.
	Key string
	// Class is the Definition 8 classification of the domain's current
	// labeling.
	Class string
	// Clusters summarizes the §2.1 mapping of the domain's integration:
	// one entry per integrated field cluster.
	Clusters []ClusterInfo
}

// ClusterInfo summarizes one cluster of a discovered domain's mapping.
type ClusterInfo struct {
	// Name is the internal cluster identifier; Label the label the
	// integrated field received ("" when none could be assigned).
	Name  string
	Label string
	// Frequency is the number of member forms supplying the field;
	// Labels the distinct raw labels they supplied, in first-seen order.
	Frequency int
	Labels    []string
}

// ErrUnknownDomain is returned for lookups of evicted or never-seen
// domain IDs.
var ErrUnknownDomain = errors.New("discover: unknown or evicted domain id")

// domain is one live connected component: its member signatures in hash
// order, the integration of the members with its cache key, and the idle
// clock. A membership change replaces the domain with a new one.
type domain struct {
	id       string     // the minimum member hash, members[0].hash
	members  []*formSig // sorted by hash
	res      *qilabel.Result
	key      string
	lastUsed time.Time
}

// Engine is the online domain-discovery state. It is safe for concurrent
// use; operations serialize on an internal mutex.
type Engine struct {
	mu      sync.Mutex
	ig      *qilabel.Integrator
	thr     float64
	ttl     time.Duration
	max     int
	now     func() time.Time
	onEvict func(domains, forms int)

	sem     *naming.Semantics // kernel memo; guarded by mu
	domains map[*domain]bool
	byForm  map[string]*domain

	ingested, duplicates, created, merged, evicted uint64
}

// New builds an Engine over the given configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Integrator == nil {
		return nil, errors.New("discover: Config.Integrator is required")
	}
	if cfg.Threshold < 0 || cfg.Threshold > 1 {
		return nil, fmt.Errorf("discover: Threshold = %v outside (0, 1]", cfg.Threshold)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultThreshold
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	igCfg := cfg.Integrator.Config()
	return &Engine{
		ig:      cfg.Integrator,
		thr:     cfg.Threshold,
		ttl:     cfg.TTL,
		max:     cfg.MaxDomains,
		now:     cfg.Now,
		onEvict: cfg.OnEvict,
		sem:     naming.NewSemantics(igCfg.Lexicon),
		domains: make(map[*domain]bool),
		byForm:  make(map[string]*domain),
	}, nil
}

// Ingest assigns one form to a domain and updates that domain's live
// integration. The tree is cloned, never retained or modified. A failed
// or canceled ingest leaves the engine state unchanged.
func (e *Engine) Ingest(ctx context.Context, t *qilabel.Tree) (*Assignment, error) {
	if t == nil {
		return nil, errors.New("discover: nil form")
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("discover: invalid form: %w", err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	e.sweepLocked(now)

	sig := newFormSig(t.Clone())
	if d, ok := e.byForm[sig.hash]; ok {
		d.lastUsed = now
		e.ingested++
		e.duplicates++
		return &Assignment{
			FormHash:  sig.hash,
			Domain:    d.id,
			Duplicate: true,
			Sources:   len(d.members),
			Key:       d.key,
			Domains:   len(e.domains),
		}, nil
	}

	// The form's domain is the union of every component it is similar to:
	// an edge to any member of a domain connects the form to that whole
	// component.
	var matches []*domain
	best := 0.0
	for d := range e.domains {
		top := 0.0
		for _, m := range d.members {
			if s := similarity(e.sem, sig, m); s > top {
				top = s
			}
		}
		if top > best {
			best = top
		}
		if top >= e.thr {
			matches = append(matches, d)
		}
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].id < matches[j].id })

	// Integrate the form's new domain before touching any state, so a
	// failed run (cancellation, a deadline) leaves every domain untouched.
	members := []*formSig{sig}
	for _, m := range matches {
		members = append(members, m.members...)
	}
	d, err := e.integrate(ctx, members)
	if err != nil {
		return nil, err
	}

	a := &Assignment{FormHash: sig.hash, Similarity: best, New: len(matches) == 0}
	if a.New {
		e.created++
	}
	for _, m := range matches {
		if len(matches) > 1 {
			a.Merged = append(a.Merged, m.id)
			e.merged++
		}
		delete(e.domains, m)
	}
	e.registerLocked(d, now)
	e.ingested++
	a.Domain, a.Sources, a.Key, a.Domains = d.id, len(d.members), d.key, len(e.domains)
	return a, nil
}

// integrate builds the domain of one member set, labeled in a single
// pipeline run over the members in hash order, under the key a
// /v1/integrate of the same forms computes.
func (e *Engine) integrate(ctx context.Context, members []*formSig) (*domain, error) {
	sort.Slice(members, func(i, j int) bool { return members[i].hash < members[j].hash })
	trees := make([]*qilabel.Tree, len(members))
	hashes := make([]string, len(members))
	for i, m := range members {
		trees[i], hashes[i] = m.tree, m.hash
	}
	res, err := e.ig.IntegrateContext(ctx, trees)
	if err != nil {
		return nil, err
	}
	return &domain{
		id:      hashes[0],
		members: members,
		res:     res,
		key:     schema.CacheKey(hashes, e.ig.Fingerprint()),
	}, nil
}

// registerLocked adds a new domain, evicting the least-recently-used one
// first when the engine is at capacity. Caller holds mu.
func (e *Engine) registerLocked(d *domain, now time.Time) {
	for e.max > 0 && len(e.domains) >= e.max {
		var oldest *domain
		for cand := range e.domains {
			if oldest == nil || cand.lastUsed.Before(oldest.lastUsed) ||
				(cand.lastUsed.Equal(oldest.lastUsed) && cand.id < oldest.id) {
				oldest = cand
			}
		}
		e.dropLocked(oldest)
	}
	e.domains[d] = true
	for _, m := range d.members {
		e.byForm[m.hash] = d
	}
	d.lastUsed = now
}

// sweepLocked evicts domains idle past the TTL. Caller holds mu.
func (e *Engine) sweepLocked(now time.Time) {
	if e.ttl <= 0 {
		return
	}
	for d := range e.domains {
		if now.Sub(d.lastUsed) > e.ttl {
			e.dropLocked(d)
		}
	}
}

// dropLocked removes one domain and forgets its forms. Caller holds mu.
func (e *Engine) dropLocked(d *domain) {
	delete(e.domains, d)
	for _, m := range d.members {
		delete(e.byForm, m.hash)
	}
	e.evicted++
	if e.onEvict != nil {
		e.onEvict(1, len(d.members))
	}
}

// Domains lists the live domains sorted by ID. The listing sweeps the TTL
// first, so evicted domains never appear.
func (e *Engine) Domains() ([]DomainInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(e.now())
	out := make([]DomainInfo, 0, len(e.domains))
	for d := range e.domains {
		out = append(out, d.info())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// Domain returns one live domain's listing entry.
func (e *Engine) Domain(id string) (DomainInfo, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(e.now())
	d, ok := e.lookupLocked(id)
	if !ok {
		return DomainInfo{}, ErrUnknownDomain
	}
	return d.info(), nil
}

// Result returns a live domain's current integration outcome together
// with its cache key and the member sources (clones, in canonical order)
// — everything a server needs to publish the labeling into its result
// cache. The Result is shared until the domain changes; treat it as
// read-only.
func (e *Engine) Result(id string) (*qilabel.Result, string, []*qilabel.Tree, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(e.now())
	d, ok := e.lookupLocked(id)
	if !ok {
		return nil, "", nil, ErrUnknownDomain
	}
	return d.res, d.key, d.sources(), nil
}

// sources returns clones of the domain's member forms in canonical (hash)
// order.
func (d *domain) sources() []*qilabel.Tree {
	out := make([]*qilabel.Tree, len(d.members))
	for i, m := range d.members {
		out[i] = m.tree.Clone()
	}
	return out
}

// forms returns the domain's member hashes in sorted order.
func (d *domain) forms() []string {
	out := make([]string, len(d.members))
	for i, m := range d.members {
		out[i] = m.hash
	}
	return out
}

func (e *Engine) lookupLocked(id string) (*domain, bool) {
	// A domain's ID is its minimum member hash, so byForm resolves it.
	d, ok := e.byForm[id]
	if !ok || d.id != id {
		return nil, false
	}
	return d, true
}

// info builds the domain's listing entry from its integration and the
// §2.1 cluster mapping.
func (d *domain) info() DomainInfo {
	info := DomainInfo{
		ID:      d.id,
		Sources: len(d.members),
		Forms:   d.forms(),
		Key:     d.key,
		Class:   d.res.Class.String(),
	}
	for _, c := range d.res.Mapping.Clusters {
		info.Clusters = append(info.Clusters, ClusterInfo{
			Name:      c.Name,
			Label:     d.res.Labels[c.Name],
			Frequency: c.Frequency(),
			Labels:    c.Labels(),
		})
	}
	return info
}

// Partition returns the current domain partition: canonical domain ID →
// sorted member hashes. It is the object the permutation-invariance
// contract quantifies over.
func (e *Engine) Partition() map[string][]string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string][]string, len(e.domains))
	for d := range e.domains {
		out[d.id] = d.forms()
	}
	return out
}

// Len returns the live domain count after a TTL sweep.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(e.now())
	return len(e.domains)
}

// Stats snapshots the engine's counters and gauges (after a TTL sweep).
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sweepLocked(e.now())
	return Stats{
		Domains:    len(e.domains),
		Forms:      len(e.byForm),
		Ingested:   e.ingested,
		Duplicates: e.duplicates,
		Created:    e.created,
		Merged:     e.merged,
		Evicted:    e.evicted,
	}
}

// Threshold returns the engine's effective similarity threshold.
func (e *Engine) Threshold() float64 { return e.thr }
