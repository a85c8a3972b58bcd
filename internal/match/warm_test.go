package match

import (
	"fmt"
	"testing"
)

// TestWarmKeyCapBound: an adversarial stream of distinct field contents
// must never push the key table past its cap, and verdicts keyed by the
// interned IDs stay bounded by the pair cap.
func TestWarmKeyCapBound(t *testing.T) {
	const keyCap = 32
	const pairCap = 128
	w := newWarm(nil, keyCap, pairCap)
	var ids []int32
	for i := 0; i < 500; i++ {
		ck := fmt.Sprintf("content-%d", i)
		if _, _, ok := w.fieldKeys(ck); ok {
			t.Fatalf("distinct content %d reported as cached", i)
		}
		ids = append(ids, w.internKeys(ck, []string{"k"}))
		if st := w.Stats(); st.Keys > keyCap {
			t.Fatalf("after %d interns the key table holds %d, cap is %d", i+1, st.Keys, keyCap)
		}
	}
	// IDs are never reused within the epoch, even across evictions: a
	// verdict keyed by two IDs can only mean one content pair.
	seen := make(map[int32]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("ID %d issued twice within one epoch", id)
		}
		seen[id] = true
	}
	for i := 0; i+1 < len(ids); i++ {
		w.pairs.Put(pairIDKey(ids[i], ids[i+1]), i%2 == 0)
		if st := w.Stats(); st.Pairs > pairCap {
			t.Fatalf("after %d verdicts the pair table holds %d, cap is %d", i+1, st.Pairs, pairCap)
		}
	}
	st := w.Stats()
	if st.KeyMisses != 500 {
		t.Errorf("KeyMisses = %d, want 500", st.KeyMisses)
	}
	if st.Keys == 0 || st.Pairs == 0 {
		t.Errorf("tables empty after adversarial load: %+v", st)
	}
}

// TestWarmPairPromotionCountsOnce: a verdict promoted out of the old
// generation moves instead of holding a slot in both, so the population
// Stats reports is the number of distinct pairs.
func TestWarmPairPromotionCountsOnce(t *testing.T) {
	// Four verdicts per shard: the current generation rotates at two.
	w := newWarm(nil, warmKeyCap, 4*64)
	// (key^(key>>32))%64 is 0 for all three keys: they share one shard.
	keys := []uint64{pairIDKey(0, 0), pairIDKey(1, 1), pairIDKey(2, 2)}
	for _, k := range keys { // the third store rotates
		w.pairs.Put(k, true)
	}
	if v, ok := w.pairs.Get(keys[0]); !ok || !v { // an old-generation hit
		t.Fatalf("rotated verdict = %v, %v; want true, true", v, ok)
	}
	if st := w.Stats(); st.Pairs != len(keys) || st.PairHits != 1 {
		t.Fatalf("Pairs = %d, PairHits = %d after one promotion; want %d and 1", st.Pairs, st.PairHits, len(keys))
	}
}
