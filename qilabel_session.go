package qilabel

import (
	"context"
	"time"

	"qilabel/internal/delta"
	"qilabel/internal/schema"
)

// ErrSessionEmpty is returned by Session.Result when the session has no
// sources; ErrUnknownSource is wrapped by UpdateSource and RemoveSource
// when the given hash matches no source in the session.
var (
	ErrSessionEmpty  = delta.ErrEmptySession
	ErrUnknownSource = delta.ErrUnknownSource
)

// Session is a live integration over a mutable source set: add, update and
// remove source interfaces one at a time and read the labeled integrated
// interface after every change. Each change re-runs the pipeline on the
// Integrator's warm cache, so the per-label and per-pair facts of
// untouched sources are not re-derived. The configuration (options) is
// fixed when the session is created, mirroring IntegrateContext's
// semantics exactly:
//
//	After any sequence of delta operations, Result is byte-identical to
//	IntegrateContext over the session's current source set with the same
//	options — including Summary, Explain, the cluster partition and the
//	inference-rule counters. The delta machinery decides what to
//	recompute, never what comes out.
//
// Sources are identified by their canonical hash (returned by AddSource);
// adding the same tree twice stacks a duplicate, and removing it once
// brings the session back to the previous state. A Session is safe for
// concurrent use; operations serialize internally. A failed or canceled
// operation leaves the session state unchanged.
type Session struct {
	inner *delta.Session
	ig    *Integrator
}

// SessionStats profiles the most recent delta operation: total pipeline
// components (clusters) and how many were reused vs. recomputed, the
// candidate pairs the matcher evaluated, and the operation's duration.
// The operation's own run tallies the pair count, so concurrent runs on
// the same Integrator never move it.
type SessionStats struct {
	Op                   string        `json:"op"`
	Sources              int           `json:"sources"`
	Components           int           `json:"components"`
	ComponentsReused     int           `json:"componentsReused"`
	ComponentsRecomputed int           `json:"componentsRecomputed"`
	PairsEvaluated       int           `json:"pairsEvaluated"`
	Duration             time.Duration `json:"-"`
	DurationMs           float64       `json:"durationMs"`
}

// SessionTotals aggregates SessionStats over a session's lifetime.
type SessionTotals struct {
	Ops                  int64 `json:"ops"`
	Adds                 int64 `json:"adds"`
	Updates              int64 `json:"updates"`
	Removes              int64 `json:"removes"`
	ComponentsReused     int64 `json:"componentsReused"`
	ComponentsRecomputed int64 `json:"componentsRecomputed"`
	PairsEvaluated       int64 `json:"pairsEvaluated"`
}

// NewSession creates an empty incremental integration session with the
// given options (the same options Integrate takes; Observer is unused by
// sessions). It is a thin wrapper over NewIntegrator + Integrator.NewSession;
// callers opening many sessions with one configuration should hold the
// Integrator and create sessions from it, sharing its warm cache and
// cached fingerprint.
func NewSession(opts ...Option) (*Session, error) {
	ig, err := newIntegratorFromOptions(opts)
	if err != nil {
		return nil, err
	}
	return ig.NewSession(), nil
}

// AddSource validates and adds one source interface (the tree is cloned,
// never retained or modified) and recomputes the integration. It returns
// the source's canonical hash — the handle UpdateSource and RemoveSource
// take, identical to (*Tree).CanonicalHash().
func (s *Session) AddSource(ctx context.Context, t *Tree) (string, error) {
	return s.inner.AddSource(ctx, t)
}

// UpdateSource atomically replaces one occurrence of the source with the
// given hash by the new tree, recomputing once, and returns the new hash.
func (s *Session) UpdateSource(ctx context.Context, hash string, t *Tree) (string, error) {
	return s.inner.UpdateSource(ctx, hash, t)
}

// RemoveSource removes one occurrence of the source with the given hash
// and recomputes the integration. Removing the last source empties the
// session.
func (s *Session) RemoveSource(ctx context.Context, hash string) error {
	return s.inner.RemoveSource(ctx, hash)
}

// Result returns the current integration outcome — byte-identical to
// IntegrateContext over Sources() with the session's options. It errors
// on an empty session. The Result is shared until the next delta
// operation replaces it; treat it as read-only.
func (s *Session) Result() (*Result, error) {
	out, err := s.inner.Outcome()
	if err != nil {
		return nil, err
	}
	return resultFromOutcome(out, s.ig.cfg.Lexicon), nil
}

// Len returns the session's source count (duplicates counted).
func (s *Session) Len() int { return s.inner.Len() }

// SourceHashes returns the canonical hashes of the session's sources in
// canonical (hash) order, duplicates repeated.
func (s *Session) SourceHashes() []string { return s.inner.Hashes() }

// Sources returns clones of the session's current sources in canonical
// order — the listing a from-scratch Integrate of the same state would
// canonicalize to.
func (s *Session) Sources() []*Tree { return s.inner.Sources() }

// Stats returns the statistics of the most recent delta operation.
func (s *Session) Stats() SessionStats {
	st := s.inner.LastStats()
	return SessionStats{
		Op:                   st.Op,
		Sources:              st.Sources,
		Components:           st.Components,
		ComponentsReused:     st.ComponentsReused,
		ComponentsRecomputed: st.ComponentsRecomputed,
		PairsEvaluated:       st.PairsEvaluated,
		Duration:             st.Duration,
		DurationMs:           float64(st.Duration) / float64(time.Millisecond),
	}
}

// Totals returns lifetime aggregates across every delta operation.
func (s *Session) Totals() SessionTotals {
	t := s.inner.TotalStats()
	return SessionTotals{
		Ops:                  t.Ops,
		Adds:                 t.Adds,
		Updates:              t.Updates,
		Removes:              t.Removes,
		ComponentsReused:     t.ComponentsReused,
		ComponentsRecomputed: t.ComponentsRecomputed,
		PairsEvaluated:       t.PairsEvaluated,
	}
}

// Fingerprint returns the session configuration's fingerprint — exactly
// Config.Fingerprint over the options the session was created with,
// computed once and cached on the underlying Integrator.
func (s *Session) Fingerprint() string { return s.ig.Fingerprint() }

// CacheKey returns the CacheKey of the session's current source set under
// its options: identical to CacheKey(s.Sources(), opts...), computed from
// the tracked per-source hashes without re-hashing any tree or
// re-fingerprinting the configuration. The key identifies the session's
// Result in the server's cache.
func (s *Session) CacheKey() string {
	return schema.CacheKey(s.inner.Hashes(), s.ig.Fingerprint())
}
