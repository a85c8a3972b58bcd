// Server: a client session against the qilabeld HTTP service. The example
// starts the service in-process on a loopback listener (exactly what
// cmd/qilabeld serves) and walks the live-pipeline loop of the paper's
// system overview over HTTP: list the builtin corpora, integrate the
// Airline domain (cold), integrate it again (warm — a pure cache hit that
// skips match/merge/naming), translate a global query against the cached
// integration, batch-integrate several corpora in one streamed call, read
// the runtime metrics, and grow an incremental /v1/sessions session one
// source delta at a time.
//
//	go run ./examples/server
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	"qilabel"
	"qilabel/internal/server"
)

func main() {
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	defer ts.Close()
	fmt.Printf("qilabeld serving on %s\n\n", ts.URL)

	// 1. Which corpora does the service know?
	var domains struct {
		Domains []struct {
			Name       string `json:"name"`
			Interfaces int    `json:"interfaces"`
		} `json:"domains"`
	}
	get(ts.URL+"/v1/domains", &domains)
	fmt.Println("builtin domains:")
	for _, d := range domains.Domains {
		fmt.Printf("  %-12s %d interfaces\n", d.Name, d.Interfaces)
	}

	// 2. Integrate the Airline corpus — the cold path runs the whole
	// match/merge/naming pipeline.
	var cold struct {
		Key    string            `json:"key"`
		Cached bool              `json:"cached"`
		Class  string            `json:"class"`
		Labels map[string]string `json:"labels"`
	}
	post(ts.URL+"/v1/integrate", map[string]any{"domain": "Airline"}, &cold)
	fmt.Printf("\ncold integrate: class=%s cached=%v key=%s…\n",
		cold.Class, cold.Cached, cold.Key[:12])

	// 3. The same request again — served from the LRU cache.
	var warm struct {
		Cached bool `json:"cached"`
	}
	post(ts.URL+"/v1/integrate", map[string]any{"domain": "Airline"}, &warm)
	fmt.Printf("warm integrate: cached=%v\n", warm.Cached)

	// 4. Translate a global query against the cached integration.
	var trans struct {
		SubQueries []struct {
			Interface   string `json:"interface"`
			Assignments []struct {
				Label string `json:"label"`
				Value string `json:"value"`
			} `json:"assignments"`
			Unsupported []string `json:"unsupported"`
		} `json:"subQueries"`
	}
	post(ts.URL+"/v1/translate", map[string]any{
		"key":   cold.Key,
		"query": map[string]string{"c_From": "Chicago", "c_To": "Seoul"},
	}, &trans)
	fmt.Printf("\ntranslated query over %d sources; first three:\n", len(trans.SubQueries))
	for _, sub := range trans.SubQueries[:3] {
		fmt.Printf("  %s:", sub.Interface)
		for _, a := range sub.Assignments {
			fmt.Printf(" %s=%q", a.Label, a.Value)
		}
		if len(sub.Unsupported) > 0 {
			fmt.Printf(" (post-filter: %v)", sub.Unsupported)
		}
		fmt.Println()
	}

	// 5. Batch-integrate several corpora in one call. Items are
	// deduplicated by cache key (the two Airline items share one result —
	// here a cache hit from step 2) and results stream back as NDJSON
	// lines as they complete.
	data, err := json.Marshal(map[string]any{
		"parallelism": 2,
		"items": []map[string]any{
			{"domain": "Airline"},
			{"domain": "Book"},
			{"domain": "Airline"},
			{"domain": "Job"},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/integrate/batch", "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbatch integrate (streamed NDJSON):")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Done   bool   `json:"done"`
			Index  int    `json:"index"`
			Status string `json:"status"`
			Class  string `json:"class"`
			Items  int    `json:"items"`
			Hits   int    `json:"hits"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			log.Fatal(err)
		}
		if line.Done {
			fmt.Printf("  summary: %d items, %d cache hits\n", line.Items, line.Hits)
		} else {
			fmt.Printf("  item %d: %-9s class=%s\n", line.Index, line.Status, line.Class)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}

	// 6. Runtime metrics: counts, latency percentiles, cache hit/miss,
	// aggregated inference-rule firings.
	var metrics struct {
		Cache struct {
			Hits   int64 `json:"hits"`
			Misses int64 `json:"misses"`
		} `json:"cache"`
		Naming map[string]int `json:"naming"`
	}
	get(ts.URL+"/metrics", &metrics)
	fmt.Printf("\nmetrics: cache hits=%d misses=%d, inference-rule firings=%d\n",
		metrics.Cache.Hits, metrics.Cache.Misses, metrics.Naming["total"])

	// 7. Incremental integration: a stateful session absorbs source-set
	// changes one delta at a time; each delta re-runs the pipeline over the
	// session's source set on the daemon's warm cache. The result after any
	// delta sequence is byte-identical to a from-scratch integration of the
	// current source set — and lands in the same cache, so /v1/translate
	// works against the session's key.
	var sess struct {
		ID string `json:"id"`
	}
	post(ts.URL+"/v1/sessions", map[string]any{}, &sess)
	sources, err := qilabel.BuiltinDomain("Book")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsession %s… growing the Book pool source by source:\n", sess.ID[:8])
	var op struct {
		Hash  string `json:"hash"`
		Key   string `json:"key"`
		Stats struct {
			Components int     `json:"components"`
			DurationMs float64 `json:"durationMs"`
		} `json:"stats"`
	}
	for _, src := range sources[:4] {
		post(ts.URL+"/v1/sessions/"+sess.ID+"/sources", map[string]any{"source": src}, &op)
		fmt.Printf("  +%s: %d components (%.1fms)\n",
			op.Hash[:8], op.Stats.Components, op.Stats.DurationMs)
	}
	var result struct {
		Key    string `json:"key"`
		Class  string `json:"class"`
		Cached bool   `json:"cached"`
	}
	get(ts.URL+"/v1/sessions/"+sess.ID+"/result", &result)
	fmt.Printf("  result: class=%s key=%s… (identical to integrating the 4 sources from scratch)\n",
		result.Class, result.Key[:12])

	// Removing the last source is one more delta.
	del(ts.URL + "/v1/sessions/" + sess.ID + "/sources/" + op.Hash)
	get(ts.URL+"/v1/sessions/"+sess.ID+"/result", &result)
	fmt.Printf("  after remove: key=%s… (the 3-source integration's key)\n", result.Key[:12])
	del(ts.URL + "/v1/sessions/" + sess.ID)
}

func del(url string) {
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("DELETE %s: %s", url, resp.Status)
	}
}

func get(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, v)
}

func post(url string, body, v any) {
	data, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	decode(resp, v)
}

func decode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s", resp.Request.URL, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
