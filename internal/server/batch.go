package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"qilabel/internal/pool"
)

// POST /v1/integrate/batch: integrate many source-tree sets in one
// request — the workload shape of form-integration pipelines that process
// a whole domain's interfaces at a time rather than one interface per
// call. The items are deduplicated by cache key before any work starts, so
// a batch listing the same source pool twenty times runs the pipeline at
// most once; the distinct items then fan out across the worker pool under
// a per-batch parallelism budget, and each item's result streams back as
// one NDJSON line the moment it completes (items finish out of order; the
// index field identifies them). Errors are isolated per item: one
// malformed tree set fails its own line, never the batch.

// batchRequest is a /v1/integrate/batch body, decoded by hand (wire.go).
type batchRequest struct {
	// Items are the integrations to perform; each is a full
	// /v1/integrate request body (sources or a builtin domain, plus
	// options).
	Items []integrateRequest
	// Parallelism bounds how many of the batch's distinct items integrate
	// concurrently (a per-batch budget; items still queue for the server's
	// global worker pool). Zero: the server's MaxInflight.
	Parallelism int
	// buf holds the items' canonical encodings until the batch is
	// answered.
	buf *[]byte
}

// batchItemResult is one streamed NDJSON line of the batch response.
type batchItemResult struct {
	// Index is the item's position in the request.
	Index int `json:"index"`
	// Status reports how the result was obtained: "hit" (result cache),
	// "coalesced" (shared another request's — or another batch item's —
	// in-flight run) or "computed" (this item's own pipeline run).
	Status string `json:"status,omitempty"`
	// Key is the cache key of the integration; pass it to /v1/translate.
	// A successful item's key, class and labels are written from its
	// cache entry (cacheEntry.batchLine).
	Key    string            `json:"key,omitempty"`
	Class  string            `json:"class,omitempty"`
	Labels map[string]string `json:"labels,omitempty"`
	// Error carries this item's failure; the other items are unaffected.
	Error *errorBody `json:"error,omitempty"`
}

// batchSummaryLine is the final NDJSON line: totals over the whole batch.
type batchSummaryLine struct {
	Done      bool `json:"done"`
	Items     int  `json:"items"`
	Distinct  int  `json:"distinct"`
	Hits      int  `json:"hits"`
	Coalesced int  `json:"coalesced"`
	Computed  int  `json:"computed"`
	Errors    int  `json:"errors"`
}

// batchPlan is one request item resolved for execution.
type batchPlan struct {
	index int
	p     *pending
	err   *apiError // resolution failure; the item never runs
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !s.decode(w, r, &req) {
		return
	}
	defer req.release()
	if len(req.Items) == 0 {
		writeError(w, http.StatusBadRequest, codeBadRequest, "empty batch: provide at least one item")
		return
	}
	if len(req.Items) > s.cfg.MaxBatchItems {
		writeError(w, http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("batch of %d items exceeds the %d-item limit; split the batch", len(req.Items), s.cfg.MaxBatchItems))
		return
	}
	s.metrics.batches.Add(1)
	s.metrics.batchItems.Add(int64(len(req.Items)))

	// Resolve every item and deduplicate by cache key: duplicate items
	// share the first occurrence's run and are reported as coalesced.
	plans := make([]*batchPlan, len(req.Items))
	first := make(map[string]int) // cache key -> index of first occurrence
	dupes := make(map[int][]int)  // first occurrence -> duplicate indices
	distinct := make([]*batchPlan, 0, len(req.Items))
	for i := range req.Items {
		item := &req.Items[i]
		plan := &batchPlan{index: i}
		// Each item resolves its own lexicon (the X-Lexicon header fills
		// items that select none), so one batch can span tenants while
		// every item keys — and coalesces — strictly within its version.
		ropts, err := s.resolveLexicon(lexiconFromRequest(r, item.Options))
		var canon []byte
		var hashes []string
		if err == nil {
			canon, hashes, err = resolveSources(item)
		}
		if err == nil {
			if ig, igErr := s.integrator(ropts); igErr != nil {
				err = &apiError{http.StatusBadRequest, codeBadRequest, igErr.Error()}
			} else {
				plan.p = newPending(ig, canon, hashes, item.Domain, ropts)
			}
		}
		plan.err = err
		if err == nil {
			if j, dup := first[plan.p.key]; dup {
				dupes[j] = append(dupes[j], i)
			} else {
				first[plan.p.key] = i
				distinct = append(distinct, plan)
			}
		}
		plans[i] = plan
	}

	budget := req.Parallelism
	if budget <= 0 || budget > s.cfg.MaxInflight {
		budget = s.cfg.MaxInflight
	}

	// Stream one NDJSON line per item as results land.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var (
		emitMu  sync.Mutex
		summary batchSummaryLine
	)
	summary.Items = len(req.Items)
	summary.Distinct = len(distinct)
	emitted := make([]bool, len(req.Items))
	// emit writes one item's line: the entry's for a success, the error
	// otherwise.
	emit := func(index int, e *cacheEntry, status string, apiErr *apiError) {
		emitMu.Lock()
		defer emitMu.Unlock()
		emitted[index] = true
		var data []byte
		if apiErr != nil {
			summary.Errors++
			data, _ = json.Marshal(batchItemResult{Index: index, // cannot fail
				Error: &errorBody{Code: apiErr.code, Message: apiErr.msg}})
			data = append(data, '\n')
		} else {
			switch status {
			case statusHit:
				summary.Hits++
			case statusCoalesced:
				summary.Coalesced++
			case statusComputed:
				summary.Computed++
			}
			data = e.batchLine(index, status)
		}
		w.Write(data)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Unresolvable items fail immediately, before any pipeline work.
	for _, plan := range plans {
		if plan.err != nil {
			emit(plan.index, nil, "", plan.err)
		}
	}

	// Fan the distinct items over the shared coalesced path. Batch items
	// block for worker slots (the budget already bounds concurrency), and
	// they coalesce with interactive requests and with other batches just
	// like any request.
	_ = pool.ForEach(r.Context(), budget, len(distinct), func(_, k int) {
		plan := distinct[k]
		e, status, apiErr := s.integrateShared(r.Context(), plan.p, true)
		emit(plan.index, e, status, apiErr)
		// Duplicates of this item share the outcome without running.
		for _, di := range dupes[plan.index] {
			emit(di, e, statusCoalesced, apiErr)
		}
	})

	// A canceled batch context stops the fan-out with items unprocessed;
	// their lines still arrive, as per-item errors.
	canceled := &apiError{code: codeCanceled, msg: "batch canceled before this item ran"}
	for _, plan := range plans {
		if !emitted[plan.index] {
			emit(plan.index, nil, "", canceled)
		}
	}

	emitMu.Lock()
	summary.Done = true
	data, err := json.Marshal(summary)
	emitMu.Unlock()
	if err == nil {
		w.Write(append(data, '\n'))
		if flusher != nil {
			flusher.Flush()
		}
	}
}
