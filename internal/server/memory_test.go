package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"testing"

	"qilabel"
	"qilabel/internal/synth"
)

// disjointSources builds a small annotated corpus whose labels are unique
// to request i, so nothing the server might retain per request is ever
// shared with another request.
func disjointSources(i int) []*qilabel.Tree {
	q := fmt.Sprintf("Q%d", i)
	return []*qilabel.Tree{
		qilabel.NewTree("a",
			qilabel.NewField("Fare "+q, "c_fare"),
			qilabel.NewField("Origin "+q, "c_from"),
			qilabel.NewField("Target "+q, "c_to"),
		),
		qilabel.NewTree("b",
			qilabel.NewField("Price "+q, "c_fare"),
			qilabel.NewField("Start "+q, "c_from"),
			qilabel.NewField("Finish "+q, "c_to"),
		),
	}
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	bytes, _ := liveHeap()
	return bytes
}

// liveHeap returns the live heap's bytes and objects after a full
// collection.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// TestServerMemoryBounded is the long-running-service audit for the
// semantic-kernel caches: every request carries labels no other request
// uses, so any per-request state the server retained — analysis tables,
// Relate memos, Semantics caches, uncapped result entries — would grow the
// live heap linearly with the request count. The test pins that after a
// warm-up, hundreds of disjoint integrations leave the GC'd heap flat (the
// analysis tables die with their request) and the result cache at its
// configured capacity.
func TestServerMemoryBounded(t *testing.T) {
	const capEntries = 4
	s, ts := newTestServer(t, Config{CacheSize: capEntries})

	run := func(from, to int) {
		for i := from; i < to; i++ {
			resp := postJSON(t, ts.URL+"/v1/integrate",
				integrateBody{Sources: disjointSources(i)})
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: status %d", i, resp.StatusCode)
			}
		}
	}

	run(0, 20) // warm up allocator, http machinery, lexicon tables
	base := heapAlloc()
	const n = 200
	run(20, 20+n)
	grown := heapAlloc()

	if s.cache.Len() > capEntries {
		t.Fatalf("result cache holds %d entries, capacity %d", s.cache.Len(), capEntries)
	}
	// A retained analysis table or Semantics for each of the n disjoint
	// requests would add tens of KiB per request; a flat service stays far
	// below this ceiling (observed growth is well under 1 MiB).
	const limit = 8 << 20
	if grown > base+limit {
		t.Fatalf("GC'd heap grew %d bytes over %d disjoint requests (limit %d): per-request state is being retained",
			grown-base, n, limit)
	}
}

// TestRetainedBytesPerOp measures what a cold integration leaves behind:
// with the result cache off, the warm tables and anything else that
// outlives a request; with it on (and large enough to keep every op), also
// the cached entry. It replays distinct 32-source subsets of a 96-source
// medium-preset population, with the matcher and the population's own
// uploaded vocabulary, and bounds the live heap's growth per request after
// a warm-up request, in bytes and in objects: the collector's cost grows
// with the objects it has to trace.
func TestRetainedBytesPerOp(t *testing.T) {
	cfg, err := synth.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sources = 96
	pop, lex, err := synth.GenerateWithLexicon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	art, err := lex.EncodeArtifact()
	if err != nil {
		t.Fatal(err)
	}
	const ops = 60
	r := rand.New(rand.NewPCG(96, 32))
	seen := make(map[string]bool)
	var bodies [][]byte
	for len(bodies) < ops+1 {
		idx := r.Perm(len(pop))[:32]
		sort.Ints(idx)
		if k := fmt.Sprint(idx); !seen[k] {
			seen[k] = true
			req := integrateBody{Options: requestOptions{Matcher: true, Lexicon: "bench-medium"}}
			for _, i := range idx {
				req.Sources = append(req.Sources, pop[i])
			}
			data, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			bodies = append(bodies, data)
		}
	}

	for _, row := range []struct {
		name        string
		cacheSize   int
		limit       float64 // MB per op
		objectLimit float64 // heap objects per op
	}{
		{"cache off", -1, 0.05, 100},
		// A cached medium op retained 0.519 MB while entries kept the
		// naming report and decoded source trees, 0.431 MB without the
		// report, and 0.285 MB in 2,720 objects with the sources kept as
		// their canonical encoding instead of trees, beside a result whose
		// merge structure pinned the expanded source trees. An entry of
		// encoded bytes and a flat translation index retains 0.098 MB in
		// 35 objects.
		{"cache on", ops + 1, 0.13, 200},
	} {
		t.Run(row.name, func(t *testing.T) {
			s := New(Config{CacheSize: row.cacheSize})
			h := s.Handler()
			serve := func(method, path string, body []byte) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
				}
			}
			serve(http.MethodPut, "/v1/lexicons/bench-medium", art)
			serve(http.MethodPost, "/v1/integrate", bodies[0])
			runtime.GC()
			base, baseObjects := liveHeap()
			for _, b := range bodies[1:] {
				serve(http.MethodPost, "/v1/integrate", b)
			}
			runtime.GC()
			grown, grownObjects := liveHeap()
			runtime.KeepAlive(s)
			perOp := (float64(grown) - float64(base)) / ops / (1 << 20)
			objects := (float64(grownObjects) - float64(baseObjects)) / ops
			t.Logf("%.3f MB in %.0f objects retained per op (%d ops, live heap %d → %d bytes)",
				perOp, objects, ops, base, grown)
			if perOp > row.limit {
				t.Fatalf("%.3f MB retained per op, limit %.2f", perOp, row.limit)
			}
			if objects > row.objectLimit {
				t.Fatalf("%.0f heap objects retained per op, limit %.0f", objects, row.objectLimit)
			}
		})
	}
	runtime.KeepAlive(bodies)
}
