package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// toySizes shrinks every corpus so a workload runs in about a second.
var toySizes = sizes{
	mediumPop: 12, mediumPool: 4, hotPools: 3, warmPools: 2,
	megaPop: 10, megaPool: 6, megaConcepts: 24,
	sessionSources: 3,
	streamDomains:  2, streamSources: 4, streamConcepts: 5,
	replay: map[string]int{"read-hot": 20, "integrate-stream": 6, "session-edit": 12, "mega-cold": 2},
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload for a second at toy sizes against an
// in-process server, traced and untraced, and checks that every metric
// BENCHMARK.json names prints with its unit and nothing fails.
func TestSmoke(t *testing.T) {
	bench := readBenchmarkJSON(t)
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			var report bytes.Buffer
			res, err := run(runConfig{
				workload: w.Name, seed: 7, seconds: 1, trace: traced,
				sizes: toySizes, root: root, spanDir: t.TempDir(), report: &report,
				launch: startInProcess,
			})
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s (traced %v): attempted %d, failed %d\n%s", w.Name, traced, res.attempted, res.failed, report.String())
			}
			line, err := res.json()
			if err != nil {
				t.Fatal(err)
			}
			var got struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{}
			for _, m := range bench.EndToEnd {
				if !traced {
					want[m.Name] = m.Unit
				}
			}
			for name := range ungated {
				if !strings.Contains(report.String(), name) {
					t.Errorf("%s (traced %v): report does not print %s", w.Name, traced, name)
				}
			}
			for _, m := range bench.PerLayer {
				if traced {
					want[m.Name] = m.Unit
				}
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics in the JSON line, BENCHMARK.json lists %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := got.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w.Name, traced, name, m, unit)
				}
				if !strings.Contains(report.String(), name) {
					t.Errorf("%s (traced %v): report does not print %s", w.Name, traced, name)
				}
			}
		}
	}
}
