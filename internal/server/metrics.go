package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qilabel"
	"qilabel/internal/naming"
)

// latencyWindow is the number of recent samples kept per endpoint for
// percentile estimation. A fixed ring bounds memory under sustained load.
const latencyWindow = 1024

// metrics aggregates runtime counters for the /metrics endpoint: request
// counts and latency percentiles per endpoint, cache hits/misses, the
// in-flight gauge and the naming pipeline's inference-rule counters
// accumulated across every cold integration.
type metrics struct {
	start time.Time

	inflight    atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// coalesced counts requests that joined another identical request's
	// in-flight pipeline run instead of starting their own.
	coalesced atomic.Int64

	// batches / batchItems count /v1/integrate/batch requests and the
	// items they carried.
	batches    atomic.Int64
	batchItems atomic.Int64

	// Cache-persistence counters: snapshot writes, successful restores and
	// entries restored from disk.
	snapshotSaves    atomic.Int64
	snapshotLoads    atomic.Int64
	snapshotRestored atomic.Int64

	// Session counters: lifecycle events and delta operations by kind.
	// A delta's pipeline stages are timed under stages, like any
	// integration's.
	sessionsCreated atomic.Int64
	sessionsEvicted atomic.Int64
	sessionsClosed  atomic.Int64
	deltaAdds       atomic.Int64
	deltaUpdates    atomic.Int64
	deltaRemoves    atomic.Int64

	mu        sync.Mutex
	endpoints map[string]*endpointStats
	stages    map[string]*stageStats
	rules     naming.Counters

	// lexicons tallies integration traffic per lexicon version (keyed by
	// the resolved content address; the server default under "default").
	// Per-version hit/miss/coalesced splits are what the tenant-isolation
	// suite asserts: a tenant's hits can only come from its own column.
	lexMu    sync.Mutex
	lexicons map[string]*lexiconCounters
}

// lexiconCounters is one lexicon version's integration traffic.
type lexiconCounters struct {
	requests  int64
	hits      int64
	misses    int64
	coalesced int64
}

type endpointStats struct {
	count  int64
	errors int64
	lat    []time.Duration // ring buffer of recent latencies
	next   int
}

// stageStats aggregates one pipeline stage's observer events: how many
// times the stage ran, how many units (trees, clusters, groups+nodes) it
// processed in total, and a latency ring for percentiles.
type stageStats struct {
	count int64
	units int64
	lat   []time.Duration
	next  int
}

func newMetrics() *metrics {
	return &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointStats),
		stages:    make(map[string]*stageStats),
		lexicons:  make(map[string]*lexiconCounters),
	}
}

// recordLexicon tallies one integration request against its lexicon's
// column. kind is the request's outcome: statusHit, statusCoalesced or
// statusComputed (a cache miss that ran, or led, the pipeline).
func (m *metrics) recordLexicon(label, kind string) {
	m.lexMu.Lock()
	defer m.lexMu.Unlock()
	c := m.lexicons[label]
	if c == nil {
		c = &lexiconCounters{}
		m.lexicons[label] = c
	}
	c.requests++
	switch kind {
	case statusHit:
		c.hits++
	case statusCoalesced:
		c.coalesced++
	case statusComputed:
		c.misses++
	}
}

// lexiconUsage snapshots the per-lexicon traffic columns.
func (m *metrics) lexiconUsage() map[string]lexiconUsageSnapshot {
	m.lexMu.Lock()
	defer m.lexMu.Unlock()
	out := make(map[string]lexiconUsageSnapshot, len(m.lexicons))
	for label, c := range m.lexicons {
		out[label] = lexiconUsageSnapshot{
			Requests:    c.requests,
			CacheHits:   c.hits,
			CacheMisses: c.misses,
			Coalesced:   c.coalesced,
		}
	}
	return out
}

// record tallies one completed request.
func (m *metrics) record(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.endpoints[endpoint]
	if st == nil {
		st = &endpointStats{}
		m.endpoints[endpoint] = st
	}
	st.count++
	if status >= 400 {
		st.errors++
	}
	if len(st.lat) < latencyWindow {
		st.lat = append(st.lat, d)
	} else {
		st.lat[st.next] = d
		st.next = (st.next + 1) % latencyWindow
	}
}

// observeStage tallies one pipeline stage event; it is the qilabel
// observer hook every cold integration runs with.
func (m *metrics) observeStage(e qilabel.StageEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.stages[e.Stage]
	if st == nil {
		st = &stageStats{}
		m.stages[e.Stage] = st
	}
	st.count++
	st.units += int64(e.Units)
	if len(st.lat) < latencyWindow {
		st.lat = append(st.lat, e.Duration)
	} else {
		st.lat[st.next] = e.Duration
		st.next = (st.next + 1) % latencyWindow
	}
}

// addRules accumulates one integration's inference-rule counters.
func (m *metrics) addRules(c naming.Counters) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, v := range c.LI {
		m.rules.LI[i] += v
	}
}

// endpointSnapshot is the JSON form of one endpoint's statistics.
type endpointSnapshot struct {
	Count  int64   `json:"count"`
	Errors int64   `json:"errors"`
	P50Ms  float64 `json:"p50Ms"`
	P90Ms  float64 `json:"p90Ms"`
	P99Ms  float64 `json:"p99Ms"`
}

// stageSnapshot is the JSON form of one pipeline stage's statistics.
type stageSnapshot struct {
	Count int64   `json:"count"`
	Units int64   `json:"units"`
	P50Ms float64 `json:"p50Ms"`
	P90Ms float64 `json:"p90Ms"`
	P99Ms float64 `json:"p99Ms"`
}

// snapshot is the JSON form of the whole registry.
type snapshot struct {
	UptimeSeconds float64                     `json:"uptimeSeconds"`
	Inflight      int64                       `json:"inflight"`
	Cache         cacheSnapshot               `json:"cache"`
	Warm          warmSnapshot                `json:"warm"`
	Batch         batchSnapshot               `json:"batch"`
	Persistence   persistenceSnapshot         `json:"persistence"`
	Sessions      sessionsSnapshot            `json:"sessions"`
	Discovery     discoverySnapshot           `json:"discovery"`
	Lexicons      lexiconsSnapshot            `json:"lexicons"`
	Endpoints     map[string]endpointSnapshot `json:"endpoints"`
	Stages        map[string]stageSnapshot    `json:"stages"`
	Naming        map[string]int              `json:"naming"`
}

// warmSnapshot is the cross-run warm-cache section of /metrics: each
// Integrator's naming.Warm (label interning, Relate verdicts), aggregated
// over every cached Integrator. HitRate is total hits over total probes
// across both tables.
type warmSnapshot struct {
	Integrators   int     `json:"integrators"`
	LabelHits     uint64  `json:"labelHits"`
	LabelMisses   uint64  `json:"labelMisses"`
	VerdictHits   uint64  `json:"verdictHits"`
	VerdictMisses uint64  `json:"verdictMisses"`
	EpochResets   uint64  `json:"epochResets"`
	HitRate       float64 `json:"hitRate"`
}

// warmSnapshotOf aggregates the warm statistics of the given integrators.
func warmSnapshotOf(stats []qilabel.WarmStats) warmSnapshot {
	w := warmSnapshot{Integrators: len(stats)}
	for _, st := range stats {
		w.LabelHits += st.LabelHits
		w.LabelMisses += st.LabelMisses
		w.VerdictHits += st.VerdictHits
		w.VerdictMisses += st.VerdictMisses
		w.EpochResets += st.EpochResets
	}
	hits := w.LabelHits + w.VerdictHits
	misses := w.LabelMisses + w.VerdictMisses
	if hits+misses > 0 {
		w.HitRate = float64(hits) / float64(hits+misses)
	}
	return w
}

type cacheSnapshot struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Entries   int   `json:"entries"`
	// Bytes is the sum of the entries' sizes: their replies, translation
	// indexes and the canonical encodings and hashes of their sources.
	Bytes    int64 `json:"bytes"`
	Capacity int   `json:"capacity"`
}

type batchSnapshot struct {
	Count int64 `json:"count"`
	Items int64 `json:"items"`
}

type persistenceSnapshot struct {
	Saves           int64 `json:"saves"`
	Loads           int64 `json:"loads"`
	RestoredEntries int64 `json:"restoredEntries"`
}

// sessionsSnapshot is the incremental-integration section of /metrics:
// the live-session gauge, lifecycle counters and delta operations by
// kind.
type sessionsSnapshot struct {
	Active   int              `json:"active"`
	Created  int64            `json:"created"`
	Evicted  int64            `json:"evicted"`
	Closed   int64            `json:"closed"`
	DeltaOps map[string]int64 `json:"deltaOps"`
}

// lexiconsSnapshot is the versioned-lexicon section of /metrics: the
// registry gauges (versions held, aliases bound) and lifecycle counters,
// plus one traffic column per lexicon version that served integration
// requests. Columns are keyed by content address ("default" for the
// server default), so multi-tenant deployments can read per-tenant cache
// behavior — and verify isolation — straight off /metrics.
type lexiconsSnapshot struct {
	Versions   int                             `json:"versions"`
	Aliases    int                             `json:"aliases"`
	Puts       uint64                          `json:"puts"`
	Evictions  uint64                          `json:"evictions"`
	Reloads    uint64                          `json:"reloads"`
	PerLexicon map[string]lexiconUsageSnapshot `json:"perLexicon"`
}

// lexiconUsageSnapshot is one lexicon version's traffic column.
type lexiconUsageSnapshot struct {
	Requests    int64 `json:"requests"`
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	Coalesced   int64 `json:"coalesced"`
}

// discoverySnapshot is the online domain-discovery section of /metrics:
// the live domain/form gauges, lifecycle counters and the effective
// similarity threshold the partition runs under.
type discoverySnapshot struct {
	Active     int     `json:"active"`
	Forms      int     `json:"forms"`
	Ingested   uint64  `json:"ingested"`
	Duplicates uint64  `json:"duplicates"`
	Created    uint64  `json:"created"`
	Merged     uint64  `json:"merged"`
	Evicted    uint64  `json:"evicted"`
	Threshold  float64 `json:"threshold"`
}

func (m *metrics) snapshot(cacheEntries, cacheCap, sessionsActive int) snapshot {
	s := snapshot{
		UptimeSeconds: time.Since(m.start).Seconds(),
		Inflight:      m.inflight.Load(),
		Cache: cacheSnapshot{
			Hits:      m.cacheHits.Load(),
			Misses:    m.cacheMisses.Load(),
			Coalesced: m.coalesced.Load(),
			Entries:   cacheEntries,
			Capacity:  cacheCap,
		},
		Batch: batchSnapshot{
			Count: m.batches.Load(),
			Items: m.batchItems.Load(),
		},
		Persistence: persistenceSnapshot{
			Saves:           m.snapshotSaves.Load(),
			Loads:           m.snapshotLoads.Load(),
			RestoredEntries: m.snapshotRestored.Load(),
		},
		Sessions: sessionsSnapshot{
			Active:  sessionsActive,
			Created: m.sessionsCreated.Load(),
			Evicted: m.sessionsEvicted.Load(),
			Closed:  m.sessionsClosed.Load(),
			DeltaOps: map[string]int64{
				"add":    m.deltaAdds.Load(),
				"update": m.deltaUpdates.Load(),
				"remove": m.deltaRemoves.Load(),
			},
		},
		Endpoints: make(map[string]endpointSnapshot),
		Stages:    make(map[string]stageSnapshot),
		Naming:    make(map[string]int),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, st := range m.endpoints {
		s.Endpoints[name] = endpointSnapshot{
			Count:  st.count,
			Errors: st.errors,
			P50Ms:  percentileMs(st.lat, 0.50),
			P90Ms:  percentileMs(st.lat, 0.90),
			P99Ms:  percentileMs(st.lat, 0.99),
		}
	}
	for name, st := range m.stages {
		s.Stages[name] = stageSnapshot{
			Count: st.count,
			Units: st.units,
			P50Ms: percentileMs(st.lat, 0.50),
			P90Ms: percentileMs(st.lat, 0.90),
			P99Ms: percentileMs(st.lat, 0.99),
		}
	}
	total := 0
	for li := 1; li <= 7; li++ {
		s.Naming["li"+string(rune('0'+li))] = m.rules.LI[li]
		total += m.rules.LI[li]
	}
	s.Naming["total"] = total
	return s
}

// percentileMs returns the q-th percentile of the samples in milliseconds
// (nearest-rank on a sorted copy; 0 with no samples).
func percentileMs(samples []time.Duration, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
