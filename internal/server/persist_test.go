package server

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"qilabel"
)

// integrateOnce runs one integration against ts and returns the response.
func integrateOnce(t *testing.T, url string, req integrateBody) integrateResponse {
	t.Helper()
	resp := postJSON(t, url+"/v1/integrate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("integrate status = %d", resp.StatusCode)
	}
	var out integrateResponse
	decodeBody(t, resp, &out)
	return out
}

// TestCacheSnapshotRoundTrip: save a warm cache, load it into a fresh
// server, and verify restored entries serve /v1/integrate as cache hits
// and /v1/translate by recomputing (rehydrating) the pipeline result.
func TestCacheSnapshotRoundTrip(t *testing.T) {
	sA, tsA := newTestServer(t, Config{})
	airline := integrateOnce(t, tsA.URL, integrateBody{Domain: "Airline"})
	fixture := integrateOnce(t, tsA.URL, integrateBody{Sources: fixtureSources()})

	path := filepath.Join(t.TempDir(), "cache.json")
	saved, err := sA.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if saved != 2 {
		t.Fatalf("saved %d entries, want 2", saved)
	}

	sB, tsB := newTestServer(t, Config{})
	restored, err := sB.LoadCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 2 {
		t.Fatalf("restored %d entries, want 2", restored)
	}
	if got := sB.metrics.snapshotRestored.Load(); got != 2 {
		t.Fatalf("snapshotRestored metric = %d, want 2", got)
	}

	// The restored entries answer /v1/integrate from the cache, with the
	// response the original server computed.
	got := integrateOnce(t, tsB.URL, integrateBody{Domain: "Airline"})
	if !got.Cached {
		t.Fatal("restored Airline entry did not serve as a cache hit")
	}
	if got.Key != airline.Key || got.Class != airline.Class {
		t.Fatalf("restored response diverges: key %q/%q class %q/%q",
			got.Key, airline.Key, got.Class, airline.Class)
	}
	if got := sB.metrics.cacheMisses.Load(); got != 0 {
		t.Fatalf("cache misses on restored server = %d, want 0", got)
	}

	// /v1/translate on a restored key rehydrates the full result and
	// answers with sub-queries.
	resp := postJSON(t, tsB.URL+"/v1/translate", translateRequest{
		Key:   fixture.Key,
		Query: map[string]string{"c_Adult": "2"},
	})
	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		decodeBody(t, resp, &env)
		t.Fatalf("translate on restored key: status %d (%s)", resp.StatusCode, env.Error.Message)
	}
	var tr translateResponse
	decodeBody(t, resp, &tr)
	if len(tr.SubQueries) == 0 {
		t.Fatal("rehydrated translate returned no sub-queries")
	}
	// Rehydration re-cached the entry with the result attached; a second
	// translate must not recompute.
	naming0 := stageCount(sB, "naming")
	resp = postJSON(t, tsB.URL+"/v1/translate", translateRequest{
		Key:   fixture.Key,
		Query: map[string]string{"c_Adult": "2"},
	})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second translate: status %d", resp.StatusCode)
	}
	if got := stageCount(sB, "naming"); got != naming0 {
		t.Fatalf("second translate recomputed the pipeline (naming runs %d -> %d)", naming0, got)
	}
}

func stageCount(s *Server, stage string) int64 {
	return s.metrics.snapshot(0, 0, 0).Stages[stage].Count
}

// TestLoadCacheDefensive: missing files are cold starts; corrupt files,
// wrong versions and foreign fingerprints are rejected with an error (the
// caller logs and continues); individually tampered entries are dropped
// without failing the load.
func TestLoadCacheDefensive(t *testing.T) {
	dir := t.TempDir()

	s, ts := newTestServer(t, Config{})
	integrateOnce(t, ts.URL, integrateBody{Domain: "Airline"})
	path := filepath.Join(dir, "cache.json")
	if _, err := s.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	t.Run("missing file", func(t *testing.T) {
		fresh, _ := newTestServer(t, Config{})
		n, err := fresh.LoadCache(filepath.Join(dir, "absent.json"))
		if n != 0 || err != nil {
			t.Fatalf("missing file: restored=%d err=%v, want 0/nil", n, err)
		}
	})

	t.Run("corrupt json", func(t *testing.T) {
		bad := filepath.Join(dir, "corrupt.json")
		if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := newTestServer(t, Config{})
		n, err := fresh.LoadCache(bad)
		if n != 0 || err == nil {
			t.Fatalf("corrupt file: restored=%d err=%v, want 0 and an error", n, err)
		}
		if fresh.cache.Len() != 0 {
			t.Fatal("corrupt load dirtied the cache")
		}
	})

	t.Run("version mismatch", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file cacheSnapshotFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		file.Version = cacheSnapshotVersion + 1
		stale := filepath.Join(dir, "stale.json")
		out, _ := json.Marshal(file)
		if err := os.WriteFile(stale, out, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := newTestServer(t, Config{})
		if n, err := fresh.LoadCache(stale); n != 0 || err == nil {
			t.Fatalf("version mismatch: restored=%d err=%v, want 0 and an error", n, err)
		}
	})

	t.Run("fingerprint mismatch", func(t *testing.T) {
		// A server with a different lexicon has a different base
		// fingerprint; the snapshot is foreign to it.
		lex := qilabel.NewLexicon()
		lex.AddSynonyms("zztest", "zzthing")
		other, _ := newTestServer(t, Config{Lexicon: lex})
		if n, err := other.LoadCache(path); n != 0 || err == nil {
			t.Fatalf("fingerprint mismatch: restored=%d err=%v, want 0 and an error", n, err)
		}
	})

	t.Run("tampered entry dropped", func(t *testing.T) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var file cacheSnapshotFile
		if err := json.Unmarshal(data, &file); err != nil {
			t.Fatal(err)
		}
		if len(file.Entries) != 1 {
			t.Fatalf("snapshot has %d entries, want 1", len(file.Entries))
		}
		file.Entries[0].Key = "deadbeef" // no longer reproduces from inputs
		tampered := filepath.Join(dir, "tampered.json")
		out, _ := json.Marshal(file)
		if err := os.WriteFile(tampered, out, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := newTestServer(t, Config{})
		n, err := fresh.LoadCache(tampered)
		if err != nil {
			t.Fatalf("tampered entry must not fail the load: %v", err)
		}
		if n != 0 || fresh.cache.Len() != 0 {
			t.Fatalf("tampered entry was restored (n=%d, cache=%d)", n, fresh.cache.Len())
		}
	})
}

// TestSaveCachePreservesRecency: saving and restoring keeps the LRU order,
// so the entry most recently used before the save is also the last to be
// evicted after the restore.
func TestSaveCachePreservesRecency(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 4})
	airline := integrateOnce(t, ts.URL, integrateBody{Domain: "Airline"})
	book := integrateOnce(t, ts.URL, integrateBody{Domain: "Book"})
	// Touch Airline so Book is the least recently used.
	integrateOnce(t, ts.URL, integrateBody{Domain: "Airline"})

	path := filepath.Join(t.TempDir(), "cache.json")
	if _, err := s.SaveCache(path); err != nil {
		t.Fatal(err)
	}

	// Restore into a cache of size 1: re-inserting LRU-first means the
	// most recently used entry (Airline) wins the single slot.
	fresh, _ := newTestServer(t, Config{CacheSize: 1})
	if _, err := fresh.LoadCache(path); err != nil {
		t.Fatal(err)
	}
	if _, ok := fresh.cache.Get(airline.Key); !ok {
		t.Fatal("most recently used entry lost in restore")
	}
	if _, ok := fresh.cache.Get(book.Key); ok {
		t.Fatal("least recently used entry survived a size-1 restore")
	}
}

// TestSaveCacheOverwritesAtomically: a save over an existing snapshot
// replaces it in one step and leaves no temp files behind.
func TestSaveCacheOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.json")

	s, ts := newTestServer(t, Config{})
	integrateOnce(t, ts.URL, integrateBody{Domain: "Airline"})
	if _, err := s.SaveCache(path); err != nil {
		t.Fatal(err)
	}
	integrateOnce(t, ts.URL, integrateBody{Domain: "Book"})
	n, err := s.SaveCache(path)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("second save wrote %d entries, want 2", n)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name() != "cache.json" {
		t.Fatalf("directory holds %d files, want exactly cache.json", len(files))
	}
	var file cacheSnapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Entries) != 2 {
		t.Fatalf("snapshot on disk has %d entries, want 2", len(file.Entries))
	}
}
