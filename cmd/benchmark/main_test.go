package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/all.txt from current output")

// TestAllGolden: `benchmark -all` reproduces testdata/all.txt byte for
// byte. EXPERIMENTS.md quotes its tables from that file, so a change that
// moves one of the paper's numbers shows up here as a diff. Regenerate
// with
//
//	go test ./cmd/benchmark -update
func TestAllGolden(t *testing.T) {
	var got bytes.Buffer
	if err := run(&got, true, true, true); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", path, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-all output diverges from %s (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s",
			path, got.Bytes(), want)
	}
}
