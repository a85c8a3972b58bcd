package naming

import (
	"context"
	"fmt"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
)

// corpusMerge prepares one domain's table and merge result, the inputs of
// RunTable, outside the timed loop.
func corpusMerge(b *testing.B, domain string) (*cluster.Table, *merge.Result) {
	b.Helper()
	d, err := dataset.ByName(domain)
	if err != nil {
		b.Fatal(err)
	}
	return merged(b, d.Generate()...)
}

// BenchmarkRun measures the full naming algorithm on the Airline corpus
// (the hierarchically richest domain).
func BenchmarkRun(b *testing.B) {
	tab, mr := corpusMerge(b, "Airline")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTable(context.Background(), mr, tab, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelateMemo measures the per-Semantics Relate memo under its
// two-generation eviction bound (relMemoLimit). "resident" keeps the
// working set inside one generation — the pure hit path the group solver
// rides. "churn" cycles a working set larger than a full generation, the
// pattern the historical wholesale clear thrashed on: every pass wiped the
// memo and re-derived every verdict, whereas the two-generation rotation
// keeps the re-referenced half warm. The root package's
// TestIntegrateAllocBudget bounds the allocations of both passes.
func BenchmarkRelateMemo(b *testing.B) {
	labels := make([]string, 360)
	for i := range labels {
		labels[i] = fmt.Sprintf("departure city %d", i)
	}
	for _, mode := range []struct {
		name string
		n    int
	}{
		// 60 labels -> 3.6k ordered pairs: well inside one generation.
		{"resident", 60},
		// 360 labels -> 129.6k ordered pairs: past a full generation
		// (relMemoLimit/2 = 64k), so every pass rotates at least once.
		{"churn", 360},
	} {
		b.Run(mode.name, func(b *testing.B) {
			sem := NewSemantics(nil)
			pass := func() {
				for _, x := range labels[:mode.n] {
					for _, y := range labels[:mode.n] {
						sem.Relate(x, y)
					}
				}
			}
			// One untimed pass analyses the labels and fills the memo, so
			// the loop times the steady state whatever b.N is: pure hits
			// when resident, rotation when churning.
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// BenchmarkSolveGroup measures one group relation solve (Table 2 shape).
func BenchmarkSolveGroup(b *testing.B) {
	_, mr := corpusMerge(b, "Airline")
	if len(mr.Groups) == 0 {
		b.Fatal("no groups")
	}
	// The largest group relation of the domain.
	best := mr.Groups[0]
	for _, g := range mr.Groups {
		if len(g) > len(best) {
			best = g
		}
	}
	rel := cluster.NewRelations(cluster.Interfaces(mr.Sources)).Build(best)
	sem := NewSemantics(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem.SolveGroup(rel, SolverOptions{})
	}
}

// BenchmarkPartitions measures the graph-closure partitioning (§4.1.1).
func BenchmarkPartitions(b *testing.B) {
	_, mr := corpusMerge(b, "Hotels")
	var rel *cluster.Relation
	relations := cluster.NewRelations(cluster.Interfaces(mr.Sources))
	for _, g := range mr.Groups {
		r := relations.Build(g)
		if rel == nil || len(r.Tuples) > len(rel.Tuples) {
			rel = r
		}
	}
	sem := NewSemantics(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sem.Partitions(rel, LevelSynonymy)
	}
}
