package naming

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"qilabel/internal/schema"
)

// TestNamingMemoryLinear bounds what a naming run allocates per labeled
// source node on a request with many clusters: two interfaces of 20,000
// labeled two-field groups each, over 40,000 clusters. Naming runs on
// untrusted requests, so a source node must cost what it holds, not one
// set over every cluster of the run (a dense set per labeled node would
// be 625 words, 5,000 bytes, here alone).
func TestNamingMemoryLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("large request skipped in -short mode")
	}
	const groups = 20000
	trees := make([]*schema.Tree, 2)
	for s := range trees {
		kids := make([]*schema.Node, groups)
		for g := range kids {
			kids[g] = schema.NewGroup(fmt.Sprintf("Group %d", g),
				schema.NewField(fmt.Sprintf("Field %d", 2*g), fmt.Sprintf("c%06d", 2*g)),
				schema.NewField(fmt.Sprintf("Field %d", 2*g+1), fmt.Sprintf("c%06d", 2*g+1)))
		}
		trees[s] = schema.NewTree(fmt.Sprintf("s%d", s), kids...)
	}
	tab, mr := merged(t, trees...)
	analysis := PrecomputeAnalysis(nil, tab.Labels)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := RunTable(context.Background(), mr, tab, Options{Parallelism: 1, Analysis: analysis})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != groups {
		t.Fatalf("%d internal nodes, want %d", len(res.Nodes), groups)
	}
	labeled := 2 * groups
	perNode := float64(after.TotalAlloc-before.TotalAlloc) / float64(labeled)
	t.Logf("%.0f bytes allocated per labeled source node", perNode)
	const limit = 4096
	if perNode > limit {
		t.Fatalf("%.0f bytes allocated per labeled source node, limit %d", perNode, limit)
	}
}
