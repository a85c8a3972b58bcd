package match

import (
	"strings"
	"testing"

	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// assignAll runs the matcher over fresh copies of a domain's trees and returns
// the leaf-order cluster assignment.
func assignAll(t testing.TB, domain string, opts Options) []string {
	t.Helper()
	d, err := dataset.ByName(domain)
	if err != nil {
		t.Fatal(err)
	}
	trees := d.Generate()
	assign(t, trees, opts)
	var out []string
	for _, tr := range trees {
		for _, leaf := range tr.Leaves() {
			out = append(out, leaf.Cluster)
		}
	}
	return out
}

// TestBlockedMatchesUnblocked is the layer-3 contract: over all seven
// evaluation domains and both parallelism settings, the block-key
// candidate index must yield exactly the cluster assignment of the
// exhaustive O(F²) pass.
func TestBlockedMatchesUnblocked(t *testing.T) {
	for _, d := range dataset.Domains() {
		for _, par := range []int{1, 4} {
			blocked := assignAll(t, d.Name, Options{Parallelism: par})
			exhaustive := assignAll(t, d.Name, Options{Parallelism: par, DisableBlocking: true})
			if strings.Join(blocked, "|") != strings.Join(exhaustive, "|") {
				t.Fatalf("%s par=%d: blocked clusters diverge\nblocked:    %v\nexhaustive: %v",
					d.Name, par, blocked, exhaustive)
			}
		}
	}
}

// TestBlockedUnlabeledFields: fields with no usable label must still match
// through the instance-value keys, and label-less value-less fields must
// stay singletons.
func TestBlockedUnlabeledFields(t *testing.T) {
	mk := func(iface string, leaves ...*schema.Node) *schema.Tree {
		return &schema.Tree{Interface: iface, Root: &schema.Node{Children: leaves}}
	}
	trees := []*schema.Tree{
		mk("a",
			&schema.Node{Instances: []string{"Red", "Green", "Blue"}},
			&schema.Node{}),
		mk("b",
			&schema.Node{Instances: []string{"red", "green", "blue", "teal"}},
			&schema.Node{}),
	}
	if n := assign(t, trees, Options{}); n != 3 {
		t.Fatalf("got %d clusters, want 3 (one instance match, two singletons)", n)
	}
	if a, b := trees[0].Leaves()[0].Cluster, trees[1].Leaves()[0].Cluster; a != b {
		t.Fatalf("instance-only fields not matched: %q vs %q", a, b)
	}
	if a, b := trees[0].Leaves()[1].Cluster, trees[1].Leaves()[1].Cluster; a == b {
		t.Fatal("empty fields must not match")
	}
}

// benchTrees builds the matcher workload of one domain outside the timer.
func benchTrees(b *testing.B, domain string) []*schema.Tree {
	b.Helper()
	d, err := dataset.ByName(domain)
	if err != nil {
		b.Fatal(err)
	}
	return d.Generate()
}

// BenchmarkMatcherBlocked measures the matcher with the block-key index on the
// Hotels corpus (the matcher benchmark domain of the pipeline benches).
func BenchmarkMatcherBlocked(b *testing.B) {
	trees := benchTrees(b, "Hotels")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign(b, trees, Options{Parallelism: 1})
	}
}

// BenchmarkMatcherUnblocked measures the exhaustive reference pass.
func BenchmarkMatcherUnblocked(b *testing.B) {
	trees := benchTrees(b, "Hotels")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign(b, trees, Options{Parallelism: 1, DisableBlocking: true})
	}
}
