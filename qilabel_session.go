package qilabel

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qilabel/internal/schema"
)

// ErrSessionEmpty is returned by Session.Result when the session has no
// sources.
var ErrSessionEmpty = errors.New("qilabel: session has no sources")

// ErrUnknownSource is wrapped by UpdateSource and RemoveSource when the
// given hash matches no source in the session.
var ErrUnknownSource = errors.New("qilabel: unknown source hash")

// Session is a live integration over a mutable source set: add, update and
// remove source interfaces one at a time and read the labeled integrated
// interface after every change. A session is a source multiset over its
// Integrator's pipeline: each change re-runs IntegrateContext's pipeline
// over the new source set, on the Integrator's warm cache, so the
// per-label and per-pair facts of untouched sources are not re-derived.
// The configuration (options) is fixed when the session is created,
// mirroring IntegrateContext's semantics exactly:
//
//	After any sequence of delta operations, Result is byte-identical to
//	IntegrateContext over the session's current source set with the same
//	options — including Summary, Explain, the cluster partition and the
//	inference-rule counters.
//
// Each operation that leaves the session non-empty reports its stages to
// Config.Observer exactly as IntegrateContext over Sources() would: the
// same StageEvent sequence with the same units. Its "validate" stage times
// validating the new tree and cloning the working set, not waiting for
// the session. An operation that empties the session runs no pipeline and
// reports nothing. The Observer runs while the operation holds the
// session, so it must not call the session's methods.
//
// Sources are identified by their canonical hash (returned by AddSource);
// adding the same tree twice stacks a duplicate, and removing it once
// brings the session back to the previous state. A Session is safe for
// concurrent use; operations serialize internally. A failed or canceled
// operation leaves the session state unchanged.
type Session struct {
	ig *Integrator

	mu      sync.Mutex
	entries []sessionEntry // sorted by hash
	res     *Result        // nil while the session is empty
	last    SessionStats
	totals  SessionTotals
}

// sessionEntry is one distinct source of a session's multiset: the
// pristine clone, its canonical hash, and how many times it was added.
// Equal hashes imply structurally identical trees (CanonicalHash covers
// the full content), so duplicates are interchangeable and a count
// suffices.
type sessionEntry struct {
	hash string
	tree *Tree
	n    int
}

// SessionStats profiles the most recent delta operation: the source and
// cluster counts of the new state, the candidate pairs the matcher
// evaluated, and the operation's duration. The operation's own run
// tallies the pair count, so concurrent runs on the same Integrator never
// move it.
type SessionStats struct {
	Op             string        `json:"op"`
	Sources        int           `json:"sources"`
	Components     int           `json:"components"`
	PairsEvaluated int           `json:"pairsEvaluated"`
	Duration       time.Duration `json:"-"`
	DurationMs     float64       `json:"durationMs"`
}

// SessionTotals aggregates SessionStats over a session's lifetime.
type SessionTotals struct {
	Ops            int64 `json:"ops"`
	Adds           int64 `json:"adds"`
	Updates        int64 `json:"updates"`
	Removes        int64 `json:"removes"`
	PairsEvaluated int64 `json:"pairsEvaluated"`
}

// NewSession creates an empty incremental integration session with the
// given options (the same options Integrate takes; an Observer receives
// every operation's stages, see Session). It is a thin wrapper over
// NewIntegrator + Integrator.NewSession; callers opening many sessions
// with one configuration should hold the Integrator and create sessions
// from it, sharing its warm cache and cached fingerprint.
func NewSession(opts ...Option) (*Session, error) {
	ig, err := newIntegratorFromOptions(opts)
	if err != nil {
		return nil, err
	}
	return ig.NewSession(), nil
}

// AddSource validates and adds one source interface (the tree is cloned,
// never retained or modified) and re-integrates. It returns the source's
// canonical hash — the handle UpdateSource and RemoveSource take,
// identical to (*Tree).CanonicalHash(). Adding a tree that is already
// present stacks a duplicate, exactly as listing it twice to
// IntegrateContext would.
func (s *Session) AddSource(ctx context.Context, t *Tree) (string, error) {
	start := time.Now()
	clone, hash, err := pristine(t)
	if err != nil {
		return "", err
	}
	prep := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	next := insertEntry(append([]sessionEntry(nil), s.entries...), hash, clone)
	if err := s.apply(ctx, "add", next, prep); err != nil {
		return "", err
	}
	return hash, nil
}

// UpdateSource atomically replaces one occurrence of the source with the
// given hash by the new tree, re-integrating once, and returns the new
// hash.
func (s *Session) UpdateSource(ctx context.Context, hash string, t *Tree) (string, error) {
	start := time.Now()
	clone, newHash, err := pristine(t)
	if err != nil {
		return "", err
	}
	prep := time.Since(start)

	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.withRemoved(hash)
	if err != nil {
		return "", err
	}
	if err := s.apply(ctx, "update", insertEntry(next, newHash, clone), prep); err != nil {
		return "", err
	}
	return newHash, nil
}

// RemoveSource removes one occurrence of the source with the given hash
// and re-integrates. Removing the last source empties the session.
func (s *Session) RemoveSource(ctx context.Context, hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, err := s.withRemoved(hash)
	if err != nil {
		return err
	}
	return s.apply(ctx, "remove", next, 0)
}

// pristine validates a source tree and returns the clone a session keeps,
// with its canonical hash.
func pristine(t *Tree) (*Tree, string, error) {
	if t == nil {
		return nil, "", errors.New("qilabel: nil source tree")
	}
	if err := t.Validate(); err != nil {
		return nil, "", fmt.Errorf("qilabel: source: %w", err)
	}
	clone := t.Clone()
	return clone, clone.CanonicalHash(), nil
}

// insertEntry adds one occurrence into a sorted entry slice it owns.
func insertEntry(entries []sessionEntry, hash string, tree *Tree) []sessionEntry {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].hash >= hash })
	if i < len(entries) && entries[i].hash == hash {
		entries[i].n++
		return entries
	}
	entries = append(entries, sessionEntry{})
	copy(entries[i+1:], entries[i:])
	entries[i] = sessionEntry{hash: hash, tree: tree, n: 1}
	return entries
}

// withRemoved returns a copy of the entries with one occurrence of hash
// removed. The session's own slice is untouched, so a failed operation
// rolls back by not committing. Caller holds mu.
func (s *Session) withRemoved(hash string) ([]sessionEntry, error) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].hash >= hash })
	if i >= len(s.entries) || s.entries[i].hash != hash {
		return nil, fmt.Errorf("%w %s", ErrUnknownSource, hash)
	}
	next := append([]sessionEntry(nil), s.entries...)
	if next[i].n > 1 {
		next[i].n--
	} else {
		next = append(next[:i], next[i+1:]...)
	}
	return next, nil
}

// apply integrates next, the operation's resulting entries, and on success
// commits them with the new Result and statistics. prep is the time the
// operation spent validating and cloning its new tree before it took the
// lock. Caller holds mu.
func (s *Session) apply(ctx context.Context, op string, next []sessionEntry, prep time.Duration) error {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	st := SessionStats{Op: op}
	for _, e := range next {
		st.Sources += e.n
	}
	var res *Result
	if st.Sources > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The pipeline mutates its trees (expansion, matcher annotations),
		// so each run works on fresh clones of the pristine entries.
		working := make([]*Tree, 0, st.Sources)
		hashes := make([]string, 0, st.Sources)
		for _, e := range next {
			for k := 0; k < e.n; k++ {
				working = append(working, e.tree.Clone())
				hashes = append(hashes, e.hash)
			}
		}
		var err error
		res, st.PairsEvaluated, err = s.ig.integrate(ctx, working, hashes, prep+time.Since(start))
		if err != nil {
			return err
		}
		st.Components = len(res.Mapping.Clusters)
	}
	st.Duration = prep + time.Since(start)
	st.DurationMs = float64(st.Duration) / float64(time.Millisecond)

	s.entries, s.res, s.last = next, res, st
	s.totals.Ops++
	switch op {
	case "add":
		s.totals.Adds++
	case "update":
		s.totals.Updates++
	case "remove":
		s.totals.Removes++
	}
	s.totals.PairsEvaluated += int64(st.PairsEvaluated)
	return nil
}

// Result returns the current integration outcome — byte-identical to
// IntegrateContext over Sources() with the session's options. It errors
// on an empty session. The Result is built once per operation and shared
// until the next one replaces it; treat it as read-only.
func (s *Session) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.res == nil {
		return nil, ErrSessionEmpty
	}
	return s.res, nil
}

// Len returns the session's source count (duplicates counted).
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.entries {
		n += e.n
	}
	return n
}

// SourceHashes returns the canonical hashes of the session's sources in
// canonical (hash) order, duplicates repeated.
func (s *Session) SourceHashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hashesLocked()
}

func (s *Session) hashesLocked() []string {
	var out []string
	for _, e := range s.entries {
		for k := 0; k < e.n; k++ {
			out = append(out, e.hash)
		}
	}
	return out
}

// Sources returns clones of the session's current sources in canonical
// order — the listing a from-scratch Integrate of the same state would
// canonicalize to.
func (s *Session) Sources() []*Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Tree
	for _, e := range s.entries {
		for k := 0; k < e.n; k++ {
			out = append(out, e.tree.Clone())
		}
	}
	return out
}

// Stats returns the statistics of the most recent delta operation.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Totals returns lifetime aggregates across every delta operation.
func (s *Session) Totals() SessionTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return schema.CacheKey(s.hashesLocked(), s.ig.Fingerprint())
}
