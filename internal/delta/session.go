package delta

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// ErrEmptySession is returned by Outcome on a session with no sources.
var ErrEmptySession = errors.New("qilabel: session has no sources")

// ErrUnknownSource is wrapped by RemoveSource and UpdateSource when the
// given hash matches no source in the session.
var ErrUnknownSource = errors.New("qilabel: unknown source hash")

// Stats profiles one delta operation: what the pipeline had to do and
// what it reused. A "component" is one cluster of the mapping; a
// component counts as reused when a cluster with identical member content
// (interface, label, instances — names excluded, the matcher renumbers
// them) existed after the previous operation, i.e. the source change did
// not touch it, so its labels' analyses and Relate verdicts came from the
// warm cache. PairsEvaluated is tallied by the operation's own run, never
// read off the shared cache, which concurrent runs also move.
type Stats struct {
	// Op is "add", "update" or "remove".
	Op string
	// Sources is the session's source count after the operation.
	Sources int
	// Components is the total cluster count of the new outcome;
	// ComponentsReused and ComponentsRecomputed split it by whether the
	// cluster's member content survived from the previous state.
	Components           int
	ComponentsReused     int
	ComponentsRecomputed int
	// PairsEvaluated counts the candidate pairs the matcher evaluated
	// (matcher sessions only).
	PairsEvaluated int
	// Duration is the operation's pipeline time.
	Duration time.Duration
}

// Totals aggregates Stats across a session's lifetime.
type Totals struct {
	Ops, Adds, Updates, Removes            int64
	ComponentsReused, ComponentsRecomputed int64
	PairsEvaluated                         int64
}

// entry is one distinct source tree in the session's multiset: the
// pristine clone, its canonical hash, and how many times it was added.
// Equal hashes imply structurally identical trees (CanonicalHash covers
// the full content), so duplicates are interchangeable and a refcount
// suffices.
type entry struct {
	hash string
	tree *schema.Tree
	n    int
}

// Session owns a live integration state over a mutable source multiset.
// Each delta operation (AddSource, UpdateSource, RemoveSource) re-runs
// the shared pipeline over the updated set on the configuration's warm
// cache, so the label analyses (with their equivalence keys) and Relate
// verdicts of untouched sources are not recomputed; the resulting Outcome
// is always exactly what a from-scratch run over the same set would
// produce. Operations are serialized by an internal mutex; a failed or
// canceled operation leaves the session state unchanged (the cache may
// have absorbed partial work — harmless, it stores pure-function
// results).
type Session struct {
	mu       sync.Mutex
	cfg      Config
	entries  []entry // sorted by hash
	out      *Outcome
	prevSigs map[string]int // cluster content signature -> count, last run
	last     Stats
	totals   Totals
}

// NewSession returns an empty session over the given configuration, fixed
// for the session's lifetime. The session reuses work through the
// configuration's warm cache; it holds none of its own.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg}
}

// AddSource validates and adds one source tree (the input is cloned,
// never retained or modified) and recomputes the outcome. It returns the
// tree's canonical hash — the handle RemoveSource and UpdateSource take.
// Adding a tree that is already present stacks a duplicate, exactly as
// listing it twice to IntegrateContext would.
func (s *Session) AddSource(ctx context.Context, t *schema.Tree) (string, error) {
	if t == nil {
		return "", errors.New("qilabel: nil source tree")
	}
	if err := t.Validate(); err != nil {
		return "", fmt.Errorf("qilabel: source: %w", err)
	}
	clone := t.Clone()
	hash := clone.CanonicalHash()

	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.withAdded(hash, clone)
	if err := s.recompute(ctx, "add", next); err != nil {
		return "", err
	}
	return hash, nil
}

// RemoveSource removes one occurrence of the tree with the given
// canonical hash and recomputes the outcome. Removing the last source
// empties the session (Outcome then returns ErrEmptySession).
func (s *Session) RemoveSource(ctx context.Context, hash string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next, ok := s.withRemoved(hash)
	if !ok {
		return fmt.Errorf("%w %s", ErrUnknownSource, hash)
	}
	return s.recompute(ctx, "remove", next)
}

// UpdateSource atomically replaces one occurrence of the tree with the
// given hash by the new tree, recomputing once. It returns the new
// tree's canonical hash.
func (s *Session) UpdateSource(ctx context.Context, hash string, t *schema.Tree) (string, error) {
	if t == nil {
		return "", errors.New("qilabel: nil source tree")
	}
	if err := t.Validate(); err != nil {
		return "", fmt.Errorf("qilabel: source: %w", err)
	}
	clone := t.Clone()
	newHash := clone.CanonicalHash()

	s.mu.Lock()
	defer s.mu.Unlock()
	next, ok := s.withRemoved(hash)
	if !ok {
		return "", fmt.Errorf("%w %s", ErrUnknownSource, hash)
	}
	next = insertEntry(next, newHash, clone)
	if err := s.recompute(ctx, "update", next); err != nil {
		return "", err
	}
	return newHash, nil
}

// withAdded returns a copy of the entries with one occurrence of
// (hash, tree) added. Copy-on-write: the current slice is untouched, so a
// failed recompute rolls back by simply not committing.
func (s *Session) withAdded(hash string, tree *schema.Tree) []entry {
	return insertEntry(append([]entry(nil), s.entries...), hash, tree)
}

// insertEntry adds one occurrence into a sorted entry slice it owns.
func insertEntry(entries []entry, hash string, tree *schema.Tree) []entry {
	i := sort.Search(len(entries), func(i int) bool { return entries[i].hash >= hash })
	if i < len(entries) && entries[i].hash == hash {
		entries[i].n++
		return entries
	}
	entries = append(entries, entry{})
	copy(entries[i+1:], entries[i:])
	entries[i] = entry{hash: hash, tree: tree, n: 1}
	return entries
}

// withRemoved returns a copy of the entries with one occurrence of hash
// removed, or false if the hash is not present.
func (s *Session) withRemoved(hash string) ([]entry, bool) {
	i := sort.Search(len(s.entries), func(i int) bool { return s.entries[i].hash >= hash })
	if i >= len(s.entries) || s.entries[i].hash != hash {
		return nil, false
	}
	next := append([]entry(nil), s.entries...)
	if next[i].n > 1 {
		next[i].n--
	} else {
		next = append(next[:i], next[i+1:]...)
	}
	return next, true
}

// recompute runs the pipeline over the candidate entry set and, on
// success, commits it together with the new outcome and statistics.
func (s *Session) recompute(ctx context.Context, op string, next []entry) error {
	if ctx == nil {
		ctx = context.Background()
	}
	elapsed := stamp()
	total := 0
	for _, e := range next {
		total += e.n
	}
	st := Stats{Op: op, Sources: total}

	if total == 0 {
		s.entries = next
		s.out = nil
		s.prevSigs = nil
		st.Duration = elapsed()
		s.commit(st)
		return nil
	}

	// The pipeline mutates its trees (expansion, matcher annotations), so
	// each run works on fresh clones of the pristine entries. Entries are
	// hash-sorted and CanonicalizeSourceOrder is stable, so the working
	// order equals the canonical order a from-scratch run would settle on.
	working := make([]*schema.Tree, 0, total)
	for _, e := range next {
		for k := 0; k < e.n; k++ {
			working = append(working, e.tree.Clone())
		}
	}
	out, err := Run(ctx, working, s.cfg, nil)
	if err != nil {
		return err
	}

	sigs := make(map[string]int, len(out.Mapping.Clusters))
	for _, c := range out.Mapping.Clusters {
		sigs[naming.ClusterSignature(c)]++
	}
	st.Components = len(out.Mapping.Clusters)
	for sig, n := range sigs {
		if prev := s.prevSigs[sig]; prev > 0 {
			if prev < n {
				st.ComponentsReused += prev
			} else {
				st.ComponentsReused += n
			}
		}
	}
	st.ComponentsRecomputed = st.Components - st.ComponentsReused
	st.PairsEvaluated = out.Pairs
	st.Duration = elapsed()

	s.entries = next
	s.out = out
	s.prevSigs = sigs
	s.commit(st)
	return nil
}

// commit records one completed operation's statistics.
func (s *Session) commit(st Stats) {
	s.last = st
	s.totals.Ops++
	switch st.Op {
	case "add":
		s.totals.Adds++
	case "update":
		s.totals.Updates++
	case "remove":
		s.totals.Removes++
	}
	s.totals.ComponentsReused += int64(st.ComponentsReused)
	s.totals.ComponentsRecomputed += int64(st.ComponentsRecomputed)
	s.totals.PairsEvaluated += int64(st.PairsEvaluated)
}

// Outcome returns the current integration outcome. The outcome is shared,
// not copied — callers must treat it as read-only.
func (s *Session) Outcome() (*Outcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.out == nil {
		return nil, ErrEmptySession
	}
	return s.out, nil
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

// Hashes returns the canonical hash of every source in the session, in
// hash order, duplicates repeated.
func (s *Session) Hashes() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, e := range s.entries {
		for k := 0; k < e.n; k++ {
			out = append(out, e.hash)
		}
	}
	return out
}

// Sources returns clones of the session's current sources, in hash order,
// duplicates repeated — the source listing a from-scratch integration of
// the same state would take.
func (s *Session) Sources() []*schema.Tree {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*schema.Tree
	for _, e := range s.entries {
		for k := 0; k < e.n; k++ {
			out = append(out, e.tree.Clone())
		}
	}
	return out
}

// LastStats returns the statistics of the most recent operation.
func (s *Session) LastStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// TotalStats returns lifetime aggregates.
func (s *Session) TotalStats() Totals {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.totals
}
