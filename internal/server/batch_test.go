package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"qilabel"
)

// postBatch sends a batch request and splits the NDJSON response into item
// lines and the trailing summary line.
func postBatch(t *testing.T, url string, req batchBody) (int, []batchItemResult, *batchSummaryLine) {
	t.Helper()
	resp := postJSON(t, url+"/v1/integrate/batch", req)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("batch status %d with undecodable body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, nil, nil
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var (
		items   []batchItemResult
		summary *batchSummaryLine
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"done"`)) {
			summary = &batchSummaryLine{}
			if err := json.Unmarshal(line, summary); err != nil {
				t.Fatalf("summary line: %v", err)
			}
			continue
		}
		var item batchItemResult
		if err := json.Unmarshal(line, &item); err != nil {
			t.Fatalf("item line %q: %v", line, err)
		}
		items = append(items, item)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, items, summary
}

// TestBatchDedupAndStatuses: a batch with duplicate items runs the
// pipeline once per distinct cache key, reports the duplicates as
// coalesced, isolates a bad item's error, and a repeat batch hits the
// cache.
func TestBatchDedupAndStatuses(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := batchBody{Items: []integrateBody{
		{Domain: "Airline"},
		{Domain: "Airline"}, // duplicate of item 0
		{Sources: fixtureSources()},
		{Domain: "Groceries"}, // unknown domain: per-item error
	}}
	status, items, summary := postBatch(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(items) != 4 {
		t.Fatalf("got %d item lines, want 4", len(items))
	}
	byIndex := make(map[int]batchItemResult, len(items))
	for _, it := range items {
		byIndex[it.Index] = it
	}
	if got := byIndex[0]; got.Status != statusComputed || got.Key == "" || got.Class == "" {
		t.Fatalf("item 0 = %+v, want computed with key and class", got)
	}
	if got := byIndex[1]; got.Status != statusCoalesced || got.Key != byIndex[0].Key {
		t.Fatalf("item 1 = %+v, want coalesced duplicate of item 0", got)
	}
	if got := byIndex[2]; got.Status != statusComputed || len(got.Labels) == 0 {
		t.Fatalf("item 2 = %+v, want computed with labels", got)
	}
	if got := byIndex[3]; got.Error == nil || got.Error.Code != codeBadRequest {
		t.Fatalf("item 3 = %+v, want bad_request error", got)
	}
	want := batchSummaryLine{Done: true, Items: 4, Distinct: 2, Computed: 2, Coalesced: 1, Errors: 1}
	if summary == nil || *summary != want {
		t.Fatalf("summary = %+v, want %+v", summary, want)
	}
	// Exactly one cache insertion per distinct key, even with duplicates in
	// the batch.
	if s.cache.Len() != 2 {
		t.Fatalf("cache entries = %d, want 2", s.cache.Len())
	}
	if got := s.metrics.cacheMisses.Load(); got != 2 {
		t.Fatalf("cache misses = %d, want 2", got)
	}

	// Running the same batch again: every valid item is a cache hit.
	_, items, summary = postBatch(t, ts.URL, req)
	for _, it := range items {
		if it.Index == 3 {
			continue
		}
		if it.Status != statusHit && it.Status != statusCoalesced {
			t.Fatalf("repeat item %d status = %q, want hit (or coalesced dup)", it.Index, it.Status)
		}
	}
	if summary.Hits != 2 || summary.Computed != 0 {
		t.Fatalf("repeat summary = %+v, want 2 hits, 0 computed", summary)
	}
	if got := s.metrics.batches.Load(); got != 2 {
		t.Fatalf("batches metric = %d, want 2", got)
	}
	if got := s.metrics.batchItems.Load(); got != 8 {
		t.Fatalf("batchItems metric = %d, want 8", got)
	}
}

// TestBatchItemErrorIsolation: a tree set that fails inside the pipeline
// (no clusters) errors only its own line; the other items complete.
func TestBatchItemErrorIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := batchBody{Items: []integrateBody{
		{Sources: []*qilabel.Tree{qilabel.NewTree("solo", qilabel.NewField("Only", ""))}},
		{Sources: fixtureSources()},
	}}
	status, items, summary := postBatch(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	byIndex := make(map[int]batchItemResult, len(items))
	for _, it := range items {
		byIndex[it.Index] = it
	}
	if got := byIndex[0]; got.Error == nil || got.Error.Code != codeBadRequest {
		t.Fatalf("item 0 = %+v, want a pipeline error", got)
	}
	if got := byIndex[1]; got.Error != nil || got.Status != statusComputed {
		t.Fatalf("item 1 = %+v, want a clean computed result", got)
	}
	if summary.Errors != 1 || summary.Computed != 1 {
		t.Fatalf("summary = %+v, want 1 error, 1 computed", summary)
	}
}

// TestBatchNullSourceIsolated: an item listing a null tree fails its own
// line before any pipeline work (it used to panic the whole batch).
func TestBatchNullSourceIsolated(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := batchBody{Items: []integrateBody{{Sources: []*qilabel.Tree{nil}}, {Sources: fixtureSources()}}}
	status, items, summary := postBatch(t, ts.URL, req)
	if status != http.StatusOK || summary == nil || summary.Errors != 1 || summary.Computed != 1 {
		t.Fatalf("status %d, summary %+v, want 1 error and 1 computed", status, summary)
	}
	for _, it := range items {
		if it.Index == 0 && (it.Error == nil || it.Error.Message != "qilabel: source 0: schema: tree has no root") {
			t.Fatalf("item 0 = %+v, want the null tree rejected", it)
		}
	}
}

// TestBatchLimits: empty batches and oversized batches are rejected whole.
func TestBatchLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchItems: 2})

	status, _, _ := postBatch(t, ts.URL, batchBody{})
	if status != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d, want 400", status)
	}

	over := batchBody{Items: []integrateBody{
		{Domain: "Airline"}, {Domain: "Book"}, {Domain: "Job"},
	}}
	status, _, _ = postBatch(t, ts.URL, over)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d, want 400", status)
	}
}

// TestBatchParallelismBudget: a budget of 1 serializes the distinct items
// but still completes them all.
func TestBatchParallelismBudget(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 4})
	req := batchBody{
		Parallelism: 1,
		Items: []integrateBody{
			{Domain: "Airline"}, {Domain: "Book"}, {Domain: "Auto"},
		},
	}
	status, items, summary := postBatch(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status = %d, want 200", status)
	}
	if len(items) != 3 || summary.Computed != 3 || summary.Errors != 0 {
		t.Fatalf("items=%d summary=%+v, want 3 computed", len(items), summary)
	}
}
