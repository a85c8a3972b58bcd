// Package gencache implements the eviction policy every warm table shares:
// a map bounded by two generations. Inserts land in the current
// generation; when it holds half the cap and a new key arrives, it becomes
// the old generation (dropping the previous old one) and a fresh current
// generation starts. A hit in the old generation moves the entry back into
// the current one. An entry referenced at least once per rotation period
// therefore survives indefinitely, and the two generations together never
// hold more than the cap.
//
// The package offers three forms of the one policy: the unlocked Map, the
// locked Table that counts hits and misses, and Sharded, 64 Tables over
// uint64 keys for tables that parallel workers probe at once.
package gencache

import (
	"sync"
	"sync/atomic"
)

// Map is the unlocked two-generation map. It is not safe for concurrent
// use: a caller that shares one guards it with its own lock, and may Peek
// under a read lock.
type Map[K comparable, V any] struct {
	half     int // entries per generation
	cur, old map[K]V
}

// NewMap returns an empty map bounded to cap entries across both
// generations. A cap below 2 is raised to 2.
func NewMap[K comparable, V any](cap int) Map[K, V] {
	return Map[K, V]{half: max(cap, 2) / 2, cur: make(map[K]V)}
}

// Get returns the value stored under k. A hit in the old generation moves
// the entry into the current one.
func (m *Map[K, V]) Get(k K) (v V, ok bool) {
	if v, ok = m.cur[k]; !ok {
		v, ok = m.promote(k)
	}
	return v, ok
}

// promote is Get's old-generation probe. It is kept out of line so that
// Get stays small enough to inline on the overlay's hot path.
//
//go:noinline
func (m *Map[K, V]) promote(k K) (V, bool) {
	v, ok := m.old[k]
	if ok {
		m.Put(k, v)
	}
	return v, ok
}

// Peek probes both generations and moves nothing, so it is safe under a
// read lock. old reports a hit in the old generation: a caller that can
// take the write lock should then Get the key, or the next rotation drops
// the entry.
func (m *Map[K, V]) Peek(k K) (v V, ok, old bool) {
	if v, ok = m.cur[k]; ok {
		return v, true, false
	}
	v, ok = m.old[k]
	return v, ok, ok
}

// Put stores v under k in the current generation and removes any copy in
// the old one. When k is new to a full current generation, the
// generations rotate first; dropped is the number of entries that
// rotation evicted.
func (m *Map[K, V]) Put(k K, v V) (dropped int) {
	delete(m.old, k)
	if len(m.cur) >= m.half {
		if _, ok := m.cur[k]; !ok {
			dropped = len(m.old)
			m.old, m.cur = m.cur, make(map[K]V)
		}
	}
	m.cur[k] = v
	return dropped
}

// Len returns the population of both generations.
func (m *Map[K, V]) Len() int { return len(m.cur) + len(m.old) }

// Reset drops every entry.
func (m *Map[K, V]) Reset() {
	m.cur, m.old = make(map[K]V), nil
}

// Stats is a point-in-time snapshot of a Table or Sharded map: probes
// answered from either generation, probes that found nothing, and the
// population.
type Stats struct {
	Hits, Misses uint64
	Len          int
}

// Table is a Map behind a read-write lock, counting the hits and misses of
// Get. It is safe for concurrent use.
type Table[K comparable, V any] struct {
	mu           sync.RWMutex
	m            Map[K, V]
	hits, misses atomic.Uint64
}

// NewTable returns an empty table bounded to cap entries (see NewMap).
func NewTable[K comparable, V any](cap int) *Table[K, V] {
	t := &Table[K, V]{}
	t.m = NewMap[K, V](cap)
	return t
}

// Get returns the value stored under k. It probes under the read lock and
// takes the write lock only to move an old-generation hit into the
// current generation.
func (t *Table[K, V]) Get(k K) (V, bool) {
	t.mu.RLock()
	v, ok, old := t.m.Peek(k)
	t.mu.RUnlock()
	if !ok {
		t.misses.Add(1)
		return v, false
	}
	t.hits.Add(1)
	if old {
		t.mu.Lock()
		t.m.Get(k)
		t.mu.Unlock()
	}
	return v, true
}

// Put stores v under k.
func (t *Table[K, V]) Put(k K, v V) {
	t.mu.Lock()
	t.m.Put(k, v)
	t.mu.Unlock()
}

// Reset drops every entry; the counters keep counting.
func (t *Table[K, V]) Reset() {
	t.mu.Lock()
	t.m.Reset()
	t.mu.Unlock()
}

// Stats snapshots the counters and the population.
func (t *Table[K, V]) Stats() Stats {
	t.mu.RLock()
	n := t.m.Len()
	t.mu.RUnlock()
	return Stats{Hits: t.hits.Load(), Misses: t.misses.Load(), Len: n}
}

// shards is the number of independently locked Tables of a Sharded map.
const shards = 64

// Sharded spreads uint64 keys over 64 independently locked Tables, each
// with its own counters, so parallel workers rarely contend. It is safe
// for concurrent use.
type Sharded[V any] struct {
	shards [shards]Table[uint64, V]
}

// NewSharded returns an empty sharded map bounded to cap entries in all:
// each shard holds at most cap/64, and at least 2.
func NewSharded[V any](cap int) *Sharded[V] {
	s := &Sharded[V]{}
	for i := range s.shards {
		s.shards[i].m = NewMap[uint64, V](cap / shards)
	}
	return s
}

// shard returns the table k lives in.
func (s *Sharded[V]) shard(k uint64) *Table[uint64, V] {
	return &s.shards[(k^(k>>32))%shards]
}

// Get returns the value stored under k; see Table.Get.
func (s *Sharded[V]) Get(k uint64) (V, bool) { return s.shard(k).Get(k) }

// Put stores v under k.
func (s *Sharded[V]) Put(k uint64, v V) { s.shard(k).Put(k, v) }

// Reset drops every entry; the counters keep counting.
func (s *Sharded[V]) Reset() {
	for i := range s.shards {
		s.shards[i].Reset()
	}
}

// Stats sums the shards' counters and populations.
func (s *Sharded[V]) Stats() Stats {
	var st Stats
	for i := range s.shards {
		sh := s.shards[i].Stats()
		st.Hits += sh.Hits
		st.Misses += sh.Misses
		st.Len += sh.Len
	}
	return st
}
