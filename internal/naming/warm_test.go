package naming

import (
	"fmt"
	"testing"
)

// TestWarmLabelCapBound: under an adversarial stream of distinct labels the
// intern table must respect its cap — the two-generation rotation evicts,
// the population never exceeds labelCap, and analyses interned moments ago
// (the current generation) are still served.
func TestWarmLabelCapBound(t *testing.T) {
	const cap = 64
	w := newWarm(nil, cap, warmVerdictCap)
	for batch := 0; batch < 50; batch++ {
		labels := make([]string, 0, 16)
		for i := 0; i < 16; i++ {
			labels = append(labels, fmt.Sprintf("adversary %d-%d", batch, i))
		}
		if a := w.Analysis(labels); a == nil {
			t.Fatal("nil analysis")
		}
		if st := w.Stats(); st.LabelsInterned > cap {
			t.Fatalf("batch %d: %d labels interned, cap is %d", batch, st.LabelsInterned, cap)
		}
	}
	st := w.Stats()
	if st.LabelsEvicted == 0 {
		t.Fatalf("800 distinct labels through a cap of %d evicted nothing: %+v", cap, st)
	}
	if st.LabelMisses != 800 {
		t.Errorf("LabelMisses = %d, want 800 (every label distinct)", st.LabelMisses)
	}

	// Repeats of the most recent batch are hits, and hit entries survive
	// the next rotation (promotion keeps steadily referenced labels warm).
	last := []string{"adversary 49-0", "adversary 49-15"}
	w.Analysis(last)
	if st := w.Stats(); st.LabelHits == 0 {
		t.Errorf("repeat of current-generation labels missed: %+v", st)
	}
}

// TestWarmVerdictPromotionCountsOnce: a verdict promoted out of the old
// generation moves instead of holding a slot in both, so the population
// Stats reports is the number of distinct label pairs.
func TestWarmVerdictPromotionCountsOnce(t *testing.T) {
	// Four verdicts per shard: the current generation rotates at two.
	w := newWarm(nil, warmLabelCap, 4*64)
	labels := []string{"Departure City", "Return Date", "Cabin Class"}
	a := w.Analysis(labels)
	// A label related to itself keys (id, id), which lands in shard
	// (key^(key>>32))%64 == 0 for every id: the three share one shard.
	s := a.Semantics()
	for _, l := range labels { // the third store rotates
		s.Relate(l, l)
	}
	// A fresh overlay misses, so this probe reaches the shard: an
	// old-generation hit.
	if r := a.Semantics().Relate(labels[0], labels[0]); r != RelStringEqual {
		t.Fatalf("Relate(%q, itself) = %v", labels[0], r)
	}
	if st := w.Stats(); st.Verdicts != len(labels) || st.VerdictHits != 1 {
		t.Fatalf("Verdicts = %d, VerdictHits = %d after one promotion; want %d and 1", st.Verdicts, st.VerdictHits, len(labels))
	}
}
