package server

import (
	"container/list"
	"sync"

	"qilabel"
	"qilabel/internal/schema"
)

// cacheEntry is one cached integration: the result without its naming
// report (see translatable), the response body it produced (reused
// verbatim on warm /v1/integrate hits), and the inputs that produced it,
// so the entry can be persisted to disk and deterministically rehydrated
// after a restart: the domain, the request options and the source trees
// as bytes. hashes holds the sources' canonical hashes, in source order,
// from which the lexicon upgrade report re-keys the entry; canon holds
// their concatenated canonical encoding (schema.EncodeCanonical), which
// persistence and rehydration decode back to trees. Both come from one
// pass over the sources when the entry is built, never on a hit, and the
// encoding takes a fraction of the memory of decoded trees. res is nil on
// entries restored from a snapshot until a /v1/translate forces
// recomputation.
type cacheEntry struct {
	res     *qilabel.Result
	resp    integrateResponse
	domain  string
	options requestOptions
	hashes  []string
	canon   []byte
}

// newCacheEntry builds the entry of an integration of sources.
func newCacheEntry(res *qilabel.Result, resp integrateResponse, domain string, options requestOptions, sources []*qilabel.Tree) *cacheEntry {
	canon, hashes := schema.EncodeCanonical(sources)
	return &cacheEntry{res: res, resp: resp, domain: domain, options: options, hashes: hashes, canon: canon}
}

// translatable returns the part of a result a cache entry keeps: all of
// it but the naming report. /v1/translate reads only the merge structure,
// and the response has already copied the report's rule counters, so the
// report would only pin memory for as long as the entry lives. res itself
// is not modified.
func translatable(res *qilabel.Result) *qilabel.Result {
	kept := *res
	kept.Naming = nil
	return &kept
}

// lru is a mutex-guarded least-recently-used cache of integration results
// keyed by qilabel.CacheKey. Capacity is a number of entries; the zero
// capacity disables caching (every Get misses, Put is a no-op).
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruItem
	items map[string]*list.Element
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

func newLRU(capacity int) *lru {
	return &lru{
		cap:   capacity,
		order: list.New(),
		items: make(map[string]*list.Element),
	}
}

func (c *lru) Get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

func (c *lru) Put(key string, entry *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruItem).entry = entry
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem{key: key, entry: entry})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruItem).key)
	}
}

// Has reports whether the key is cached without touching recency — the
// upgrade report probes many keys and must not reorder the LRU.
func (c *lru) Has(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

func (c *lru) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Purge drops every entry (used by the cold-path benchmark).
func (c *lru) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element)
}

// Dump returns every entry with its key, least recently used first, so a
// restore that re-Puts them in order reproduces the recency ranking.
func (c *lru) Dump() (keys []string, entries []*cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Back(); el != nil; el = el.Prev() {
		it := el.Value.(*lruItem)
		keys = append(keys, it.key)
		entries = append(entries, it.entry)
	}
	return keys, entries
}
