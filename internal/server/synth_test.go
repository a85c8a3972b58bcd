package server

import (
	"testing"

	"qilabel"
	"qilabel/internal/synth"
)

// synthSets generates a small deterministic corpus of perturbed source
// sets for server tests.
func synthSets(t *testing.T, seed uint64, n int) [][]*qilabel.Tree {
	t.Helper()
	corpus, err := synth.Corpus(synth.Config{
		Seed: seed, Sources: 3, Concepts: 6,
		Perturb: synth.Perturb{SynonymSwap: 0.4, NumberVary: 0.3, Noise: 0.3, Reorder: 0.5},
	}, n)
	if err != nil {
		t.Fatal(err)
	}
	return corpus
}

// TestIntegrateSynthCorpus drives the HTTP surface with generated source
// sets: every set integrates cleanly, and re-submitting the same set with
// its sources permuted is a cache hit under the same key — the
// source-order canonicalization holds across the wire format, not just in
// the library API.
func TestIntegrateSynthCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i, sources := range synthSets(t, 41, 5) {
		resp := postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: sources})
		if resp.StatusCode != 200 {
			t.Fatalf("set %d: status %d", i, resp.StatusCode)
		}
		var first integrateResponse
		decodeBody(t, resp, &first)
		if first.Key == "" || first.Cached {
			t.Fatalf("set %d: first response key=%q cached=%v", i, first.Key, first.Cached)
		}
		if len(first.Labels) == 0 {
			t.Errorf("set %d: no labels assigned", i)
		}

		// Rotate the source order and resubmit.
		permuted := append(append([]*qilabel.Tree{}, sources[1:]...), sources[0])
		resp = postJSON(t, ts.URL+"/v1/integrate", integrateBody{Sources: permuted})
		if resp.StatusCode != 200 {
			t.Fatalf("set %d permuted: status %d", i, resp.StatusCode)
		}
		var second integrateResponse
		decodeBody(t, resp, &second)
		if !second.Cached {
			t.Errorf("set %d: permuted resubmission was not a cache hit", i)
		}
		if second.Key != first.Key {
			t.Errorf("set %d: permuted key %q != original %q", i, second.Key, first.Key)
		}
		if second.Text != first.Text {
			t.Errorf("set %d: permuted tree rendering differs", i)
		}
	}
}

// TestBatchSynthCorpus submits a synth corpus with duplicates through the
// batch endpoint and checks the summary accounts for the reuse.
func TestBatchSynthCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	corpus := synthSets(t, 99, 4)
	var items []integrateBody
	for round := 0; round < 2; round++ { // every set appears twice
		for _, sources := range corpus {
			items = append(items, integrateBody{Sources: sources})
		}
	}
	status, results, summary := postBatch(t, ts.URL, batchBody{Items: items})
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	if summary == nil {
		t.Fatal("batch response has no done summary")
	}
	if len(results) != len(items) {
		t.Fatalf("got %d item lines, want %d", len(results), len(items))
	}
	if summary.Items != len(items) || summary.Errors != 0 {
		t.Fatalf("summary %+v, want %d items and no errors", summary, len(items))
	}
	if summary.Distinct != len(corpus) {
		t.Errorf("distinct = %d, want %d (duplicates dedupe by cache key)", summary.Distinct, len(corpus))
	}
	if summary.Computed != len(corpus) {
		t.Errorf("computed = %d, want one pipeline run per distinct set", summary.Computed)
	}
}
