package server

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"

	"qilabel/internal/synth"
)

// benchRequest is the Airline-domain integrate request reused by both
// benchmarks; the domain resolves to the paper's 20-interface corpus, so
// the cold path exercises the full match/merge/naming pipeline.
func benchRequest(b *testing.B) *bytes.Reader {
	b.Helper()
	data, err := json.Marshal(integrateBody{Domain: "Airline"})
	if err != nil {
		b.Fatal(err)
	}
	return bytes.NewReader(data)
}

func benchServe(b *testing.B, s *Server, body *bytes.Reader) {
	b.Helper()
	if _, err := body.Seek(0, 0); err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/integrate", body)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServerIntegrateCold measures the uncached path: the cache is
// purged every iteration, so each request runs the whole pipeline.
func BenchmarkServerIntegrateCold(b *testing.B) {
	s := New(Config{})
	body := benchRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.cache.Purge()
		b.StartTimer()
		benchServe(b, s, body)
	}
}

// BenchmarkServerIntegrateWarm measures the cached path: after one
// priming request every iteration is a pure LRU hit that bypasses
// match/merge/naming.
func BenchmarkServerIntegrateWarm(b *testing.B) {
	s := New(Config{})
	body := benchRequest(b)
	benchServe(b, s, body) // prime
	if s.cache.Len() != 1 {
		b.Fatal("priming request did not populate the cache")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchServe(b, s, body)
	}
	if s.metrics.cacheHits.Load() != int64(b.N) {
		b.Fatalf("warm iterations were not all cache hits: %d/%d",
			s.metrics.cacheHits.Load(), b.N)
	}
}

// hitServer returns a server that has integrated n sources of a synth
// preset's population of the given size, with the population's vocabulary
// uploaded as the lexicon "bench-<preset>", and the integrate body it
// integrated: posted again, the body is a cache hit, the shape of
// qibench's read-hot re-submissions (medium, 32 of 96 sources) and of
// mega-cold's wrapped ops (mega, 192 sources).
func hitServer(tb testing.TB, preset string, population, n int) (*Server, []byte) {
	tb.Helper()
	cfg, err := synth.Preset(preset)
	if err != nil {
		tb.Fatal(err)
	}
	cfg.Sources = population
	pop, lex, err := synth.GenerateWithLexicon(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	art, err := lex.EncodeArtifact()
	if err != nil {
		tb.Fatal(err)
	}
	alias := "bench-" + preset
	idx := rand.New(rand.NewPCG(uint64(population), uint64(n))).Perm(population)[:n]
	sort.Ints(idx)
	req := integrateBody{Options: requestOptions{Lexicon: alias}}
	for _, i := range idx {
		req.Sources = append(req.Sources, pop[i])
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	s := New(Config{})
	for _, r := range []*http.Request{
		httptest.NewRequest(http.MethodPut, "/v1/lexicons/"+alias, bytes.NewReader(art)),
		httptest.NewRequest(http.MethodPost, "/v1/integrate", bytes.NewReader(body)),
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			tb.Fatalf("%s %s: status %d: %s", r.Method, r.URL.Path, rec.Code, rec.Body.String())
		}
	}
	return s, body
}

// serveHit posts body, which must be a cache hit.
func serveHit(tb testing.TB, h http.Handler, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/integrate", bytes.NewReader(body)))
	if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"cached": true`)) {
		tb.Fatalf("status %d, not a cache hit: %.200s", rec.Code, rec.Body.String())
	}
}

// BenchmarkServerIntegrateHit measures a cache hit of a re-submitted
// integrate body: read, key and answer, with no tree built.
func BenchmarkServerIntegrateHit(b *testing.B) {
	for _, row := range []struct {
		name               string
		population, inPool int
	}{
		{"medium", 96, 32},
		{"mega", 192, 192},
	} {
		b.Run(row.name, func(b *testing.B) {
			s, body := hitServer(b, row.name, row.population, row.inPool)
			h := s.Handler()
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serveHit(b, h, body)
			}
		})
	}
}

// TestIntegrateHitAllocBudget bounds the allocations of
// BenchmarkServerIntegrateHit's medium row, a read-hot re-submission: a
// hit builds no tree, so what it allocates does not grow with the nodes
// and strings of its sources. As TestIntegrateAllocBudget does, it fails
// above 1.15 times the count recorded here; a hit that built trees made
// 501.
func TestIntegrateHitAllocBudget(t *testing.T) {
	const measured = 39 // allocs per hit (Go 1.24, linux/amd64)
	s, body := hitServer(t, "medium", 96, 32)
	h := s.Handler()
	allocs := testing.AllocsPerRun(50, func() { serveHit(t, h, body) })
	ceiling := 1.15 * measured
	t.Logf("%.0f allocs per hit (measured %d, ceiling %.0f)", allocs, measured, ceiling)
	if allocs > ceiling {
		t.Fatalf("%.0f allocs per hit exceeds the ceiling %.0f (1.15 × the measured %d)", allocs, ceiling, measured)
	}
}
