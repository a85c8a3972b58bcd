package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"qilabel"
	"qilabel/internal/schema"
	"qilabel/internal/translate"
)

// Cache persistence: the LRU result cache survives restarts. A snapshot is
// a versioned JSON file holding, per entry, the cache key, the inputs that
// produced it (domain, request options, source trees) and the response
// body. Writes are atomic (temp file + rename in the target directory), so
// a crash mid-checkpoint leaves the previous snapshot intact. Loads are
// defensive: a missing file is a cold start, a corrupt or
// version/fingerprint-mismatched file is discarded with an error the
// caller logs — never fatal — and every entry's key is recomputed from its
// persisted inputs, so an entry whose key does not reproduce under the
// current configuration is silently dropped instead of poisoning the
// cache.

// cacheSnapshotVersion is bumped whenever the snapshot wire format or the
// semantics of persisted entries change incompatibly.
const cacheSnapshotVersion = 1

// cacheSnapshotFile is the on-disk form of the result cache.
type cacheSnapshotFile struct {
	// Version is the wire-format version (cacheSnapshotVersion).
	Version int `json:"version"`
	// Fingerprint is the server's base-configuration fingerprint (the
	// qilabel.Config fingerprint of an optionless request — which covers
	// the configured lexicon). A snapshot taken under a different
	// configuration is stale and discarded wholesale.
	Fingerprint string `json:"fingerprint"`
	// SavedUnix is the checkpoint time (seconds since the epoch).
	SavedUnix int64 `json:"savedUnix"`
	// Entries are the cached integrations, least recently used first.
	Entries []cacheSnapshotEntry `json:"entries"`
}

// cacheSnapshotEntry is one persisted integration. Response is the
// integrateResponse the entry replies with, which encoding/json writes
// compacted from the entry's reply.
type cacheSnapshotEntry struct {
	Key      string          `json:"key"`
	Domain   string          `json:"domain,omitempty"`
	Options  requestOptions  `json:"options"`
	Sources  []*qilabel.Tree `json:"sources"`
	Response json.RawMessage `json:"response"`
}

// baseFingerprint identifies the server configuration for snapshot
// validation: the fingerprint of a bare request's configuration, which
// pins the configured lexicon (the one server setting that changes
// results).
func (s *Server) baseFingerprint() string {
	return qilabel.Config{Lexicon: s.cfg.Lexicon}.Fingerprint()
}

// SaveCache atomically writes the current result cache to path and returns
// the number of entries persisted, each with its sources decoded from the
// entry's canonical encoding. Entries without sources (impossible today;
// guarded for future cache producers) are skipped.
func (s *Server) SaveCache(path string) (int, error) {
	keys, entries := s.cache.Dump()
	file := cacheSnapshotFile{
		Version:     cacheSnapshotVersion,
		Fingerprint: s.baseFingerprint(),
		SavedUnix:   time.Now().Unix(),
	}
	for i, e := range entries {
		if len(e.hashes) == 0 {
			continue
		}
		sources, err := schema.DecodeCanonical(e.canon)
		if err != nil {
			return 0, fmt.Errorf("encoding cache snapshot: entry %s: %w", keys[i], err)
		}
		file.Entries = append(file.Entries, cacheSnapshotEntry{
			Key:      keys[i],
			Domain:   e.domain,
			Options:  e.options,
			Sources:  sources,
			Response: e.reply,
		})
	}
	data, err := json.Marshal(file)
	if err != nil {
		return 0, fmt.Errorf("encoding cache snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("writing cache snapshot: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return 0, fmt.Errorf("writing cache snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("writing cache snapshot: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("writing cache snapshot: %w", err)
	}
	s.metrics.snapshotSaves.Add(1)
	return len(file.Entries), nil
}

// LoadCache restores a snapshot written by SaveCache into the result
// cache and returns how many entries it accepted. A missing file restores
// nothing and returns no error (a cold start). Any other failure — an
// unreadable file, corrupt JSON, a version or fingerprint mismatch — is
// returned for the caller to log; the cache is left as it was, and the
// server starts cold. Entries are validated individually: each persisted
// key must reproduce from the entry's own sources and options under the
// current configuration, so tampered or stale entries are dropped one by
// one rather than trusted.
func (s *Server) LoadCache(path string) (int, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("reading cache snapshot: %w", err)
	}
	var file cacheSnapshotFile
	if err := json.Unmarshal(data, &file); err != nil {
		return 0, fmt.Errorf("corrupt cache snapshot %s: %w", path, err)
	}
	if file.Version != cacheSnapshotVersion {
		return 0, fmt.Errorf("cache snapshot %s has version %d, want %d", path, file.Version, cacheSnapshotVersion)
	}
	if fp := s.baseFingerprint(); file.Fingerprint != fp {
		return 0, fmt.Errorf("cache snapshot %s was taken under configuration %q, this server runs %q; discarding", path, file.Fingerprint, fp)
	}
	responses := make([]integrateResponse, len(file.Entries))
	for i, e := range file.Entries {
		if len(e.Response) == 0 {
			continue
		}
		if err := json.Unmarshal(e.Response, &responses[i]); err != nil {
			return 0, fmt.Errorf("corrupt cache snapshot %s: entry %d: %w", path, i, err)
		}
	}
	restored := 0
	for i, e := range file.Entries {
		if e.Key == "" || len(e.Sources) == 0 {
			continue
		}
		valid := true
		for _, t := range e.Sources {
			if err := t.Validate(); err != nil {
				valid = false
				break
			}
		}
		ig, igErr := s.integrator(e.Options)
		if !valid || igErr != nil {
			continue
		}
		canon, hashes := schema.EncodeCanonical(e.Sources)
		if schema.CacheKey(hashes, ig.Fingerprint()) != e.Key {
			continue
		}
		s.cache.Put(e.Key, newCacheEntry(responses[i], e.Domain, e.Options, canon, hashes))
		restored++
	}
	s.metrics.snapshotLoads.Add(1)
	s.metrics.snapshotRestored.Add(int64(restored))
	return restored, nil
}

// rehydrate rebuilds the translation index of a snapshot-restored cache
// entry: it reruns the pipeline on the entry's sources, decoded from their
// canonical encoding, bounded by the request timeout and the worker pool,
// and re-caches the entry with the index attached. The pipeline is
// deterministic, so the recomputed result is exactly the one the entry's
// key names.
func (s *Server) rehydrate(ctx context.Context, key string, e *cacheEntry) (*translate.Index, *apiError) {
	wctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	release, ok := s.acquireCtx(wctx)
	if !ok {
		if ctx.Err() != nil {
			return nil, &apiError{statusClientClosedRequest, codeCanceled,
				"request canceled before the integration finished"}
		}
		return nil, s.timeoutError()
	}
	defer release()
	ig, err := s.integrator(e.options)
	if err != nil {
		return nil, s.apiErrorFor(err)
	}
	sources, err := schema.DecodeCanonical(e.canon)
	if err != nil {
		return nil, s.apiErrorFor(err)
	}
	res, err := ig.IntegrateOwned(wctx, sources, e.digests())
	if err != nil {
		return nil, s.apiErrorFor(err)
	}
	next := *e
	next.index = res.TranslationIndex()
	s.cache.Put(key, &next)
	return next.index, nil
}
