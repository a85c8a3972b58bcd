package naming

import (
	"testing"

	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// domainLabels collects every distinct node label across the seven builtin
// evaluation domains — the full label universe the pipeline relates.
func domainLabels(t testing.TB) []string {
	t.Helper()
	seen := make(map[string]bool)
	var labels []string
	for _, d := range dataset.Domains() {
		for _, tr := range d.Generate() {
			tr.Root.Walk(func(n *schema.Node) bool {
				if n.Label != "" && !seen[n.Label] {
					seen[n.Label] = true
					labels = append(labels, n.Label)
				}
				return true
			})
		}
	}
	return labels
}

// TestRelateMemoMatchesUnmemoized is the layer-2 contract: over every ordered
// label pair the seven evaluation domains can produce, the memoized Relate —
// both on a plain Semantics and on one backed by a shared Analysis table —
// must agree verdict-for-verdict with the unmemoized reference evaluation.
func TestRelateMemoMatchesUnmemoized(t *testing.T) {
	labels := domainLabels(t)
	t.Logf("checking %d labels (%d ordered pairs)", len(labels), len(labels)*len(labels))

	ref := NewSemanticsUnmemoized(nil)
	memoized := NewSemantics(nil)
	shared := PrecomputeAnalysis(nil, labels).Semantics()
	for _, a := range labels {
		for _, b := range labels {
			want := ref.Relate(a, b)
			if got := memoized.Relate(a, b); got != want {
				t.Fatalf("memoized Relate(%q,%q) = %v, reference says %v", a, b, got, want)
			}
			if got := shared.Relate(a, b); got != want {
				t.Fatalf("shared-analysis Relate(%q,%q) = %v, reference says %v", a, b, got, want)
			}
		}
	}
	// Second sweep over the now-warm memo: hits must replay the same verdicts.
	for _, a := range labels {
		for _, b := range labels {
			if got, want := memoized.Relate(a, b), ref.Relate(a, b); got != want {
				t.Fatalf("warm memo Relate(%q,%q) = %v, reference says %v", a, b, got, want)
			}
		}
	}
}

// TestSharedAnalysisOutOfTable: labels absent from the shared table must fall
// back to the worker-local cache with identical verdicts.
func TestSharedAnalysisOutOfTable(t *testing.T) {
	a := PrecomputeAnalysis(nil, []string{"Departure City"})
	s := a.Semantics()
	ref := NewSemanticsUnmemoized(nil)
	cases := [][2]string{
		{"Departure City", "City of Departure"}, // in-table vs out-of-table
		{"Adults", "Number of Adults"},          // both out-of-table
		{"Departure City", "Departure City"},    // both in-table
	}
	for _, c := range cases {
		if got, want := s.Relate(c[0], c[1]), ref.Relate(c[0], c[1]); got != want {
			t.Fatalf("Relate(%q,%q) = %v with shared table, reference says %v", c[0], c[1], got, want)
		}
	}
}

// relatePairs yields a deterministic label-pair workload over the domains.
func relatePairs(b *testing.B) [][2]string {
	labels := domainLabels(b)
	var pairs [][2]string
	for i := 0; i < len(labels); i += 3 {
		for j := 0; j < len(labels); j += 5 {
			pairs = append(pairs, [2]string{labels[i], labels[j]})
		}
	}
	return pairs
}

// BenchmarkRelate compares the memoized kernel against the unmemoized
// reference over the same pair workload: "cold" recomputes every verdict
// (analysis cache warm, no verdict memo), "warm" replays memo hits.
func BenchmarkRelate(b *testing.B) {
	pairs := relatePairs(b)
	b.Run("cold", func(b *testing.B) {
		s := NewSemanticsUnmemoized(nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			s.Relate(p[0], p[1])
		}
	})
	b.Run("warm", func(b *testing.B) {
		s := NewSemantics(nil)
		for _, p := range pairs {
			s.Relate(p[0], p[1])
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			s.Relate(p[0], p[1])
		}
	})
}
