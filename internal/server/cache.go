package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"qilabel/internal/schema"
	"qilabel/internal/translate"
)

// cacheEntry is one cached integration, held as a few flat allocations
// with no pointer into the pipeline's result, none into a request's
// buffers, and no spare capacity in its reply or canon. reply is the body
// the computing request received, encoded once; hits, coalesced waiters
// and batch lines are written from it. index translates queries against
// the integration (/v1/translate); it is nil on entries restored from a
// snapshot until a translate rehydrates them. The rest are the inputs
// that produced the entry, so it can be persisted to disk and
// deterministically rehydrated after a restart: the domain, the request
// options, the sources' canonical hashes, from which the lexicon upgrade
// report re-keys the entry, and their concatenated canonical encoding
// (schema.EncodeCanonical's format), which the computing run, persistence
// and rehydration all decode their trees from.
type cacheEntry struct {
	// reply is the /v1/integrate body, indented JSON with "cached": false
	// at reply[flag:flag+len("false")]; empty if the response did not
	// encode.
	reply []byte
	flag  int
	// batch is the compact JSON object of the reply's key, class and
	// labels, which a batch line carries after its index and status.
	batch   []byte
	index   *translate.Index
	domain  string
	options requestOptions
	// hashes concatenates the sources' canonical hashes, schema.HashLen
	// digits each, in source order.
	hashes string
	canon  []byte
}

// cachedFlag precedes the "cached" flag's value in an encoded reply.
var cachedFlag = []byte("\n  \"cached\": ")

// newCacheEntry encodes resp, with Cached false, into the entry of an
// integration whose sources have the given canonical encoding and hashes.
// The index is left for the caller to set.
func newCacheEntry(resp integrateResponse, domain string, options requestOptions, canon []byte, hashes []string) *cacheEntry {
	e := &cacheEntry{domain: domain, options: options, hashes: strings.Join(hashes, ""), canon: canon}
	resp.Cached = false
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if enc.Encode(resp) == nil {
		e.reply = make([]byte, buf.Len())
		copy(e.reply, buf.Bytes())
		e.flag = bytes.Index(e.reply, cachedFlag) + len(cachedFlag)
	}
	// Strings and a map of strings always encode.
	e.batch, _ = json.Marshal(struct {
		Key    string            `json:"key,omitempty"`
		Class  string            `json:"class,omitempty"`
		Labels map[string]string `json:"labels,omitempty"`
	}{resp.Key, resp.Class, resp.Labels})
	return e
}

// writeReply answers a request with the entry's reply, marked as the
// status says the request obtained it: "cached": true on a hit, and
// "coalesced": true after the flag for a request that joined another's
// run.
func writeReply(w http.ResponseWriter, e *cacheEntry, status string) {
	// As with writeJSON, a failed write means the client is gone.
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if len(e.reply) == 0 {
		return
	}
	end := e.flag + len("false")
	switch status {
	case statusHit:
		w.Write(e.reply[:e.flag])
		w.Write([]byte("true"))
		w.Write(e.reply[end:])
	case statusCoalesced:
		w.Write(e.reply[:end])
		w.Write([]byte(",\n  \"coalesced\": true"))
		w.Write(e.reply[end:])
	default:
		w.Write(e.reply)
	}
}

// batchLine returns the NDJSON line of a batch item the entry answered,
// the encoding of batchItemResult{Index, Status, Key, Class, Labels}.
func (e *cacheEntry) batchLine(index int, status string) []byte {
	line, _ := json.Marshal(batchItemResult{Index: index, Status: status}) // cannot fail
	if len(e.batch) > len("{}") {
		line = append(line[:len(line)-1], ',')
		line = append(line, e.batch[1:]...)
	}
	return append(line, '\n')
}

// digests splits hashes back into the sources' canonical hashes.
func (e *cacheEntry) digests() []string { return schema.SplitHashes(e.hashes) }

// size returns the bytes the entry's slices and strings hold, spare
// capacity included.
func (e *cacheEntry) size() int64 {
	n := cap(e.reply) + cap(e.batch) + len(e.hashes) + cap(e.canon)
	if e.index != nil {
		n += e.index.Size()
	}
	return int64(n)
}

// lru is a mutex-guarded least-recently-used cache of integration results
// keyed by qilabel.CacheKey. Capacity is a number of entries; the zero
// capacity disables caching (every Get misses, Put is a no-op). It keeps
// the sum of its entries' sizes.
type lru struct {
	mu    sync.Mutex
	cap   int
	bytes int64
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
	c.bytes += entry.size()
	if el, ok := c.items[key]; ok {
		it := el.Value.(*lruItem)
		c.bytes -= it.entry.size()
		it.entry = entry
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruItem{key: key, entry: entry})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		it := oldest.Value.(*lruItem)
		c.bytes -= it.entry.size()
		delete(c.items, it.key)
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

// Bytes returns the sum of the entries' sizes.
func (c *lru) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Purge drops every entry (used by the cold-path benchmark).
func (c *lru) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.items = make(map[string]*list.Element)
	c.bytes = 0
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
