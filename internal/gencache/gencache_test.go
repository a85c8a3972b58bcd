package gencache

import (
	"strconv"
	"sync"
	"testing"
)

// TestMapBound: a stream of distinct keys through a tiny cap never holds
// more than the cap, and every key is either resident or counted as
// dropped by exactly one rotation.
func TestMapBound(t *testing.T) {
	m := NewMap[int, int](8)
	dropped := 0
	for k := 0; k < 1000; k++ {
		dropped += m.Put(k, k)
		if m.Len() > 8 {
			t.Fatalf("after %d puts the map holds %d, cap is 8", k+1, m.Len())
		}
		if m.Len()+dropped != k+1 {
			t.Fatalf("after %d puts: %d resident + %d dropped", k+1, m.Len(), dropped)
		}
	}
	// The newest entry is always resident.
	if v, ok := m.Get(999); !ok || v != 999 {
		t.Fatalf("Get(999) = %d, %v", v, ok)
	}
	// Rewriting a resident key neither rotates nor grows the map.
	n := m.Len()
	if d := m.Put(999, -1); d != 0 || m.Len() != n {
		t.Fatalf("rewrite dropped %d and moved the population %d -> %d", d, n, m.Len())
	}
	m.Reset()
	if m.Len() != 0 {
		t.Fatalf("Len after Reset = %d", m.Len())
	}
	if _, ok := m.Get(999); ok {
		t.Fatal("entry survived Reset")
	}
}

// TestMapPromotion: an old-generation hit moves into the current
// generation and survives the next rotation, while an unreferenced old
// entry is dropped by it; Peek sees the old entry without moving it.
func TestMapPromotion(t *testing.T) {
	m := NewMap[string, int](8)
	for i := 0; i < 4; i++ { // fill the current generation
		m.Put("old"+strconv.Itoa(i), i)
	}
	if d := m.Put("rotor", -1); d != 0 { // rotates: old0..old3 become old
		t.Fatalf("first rotation dropped %d entries of an empty old generation", d)
	}
	if v, ok, old := m.Peek("old1"); !ok || !old || v != 1 {
		t.Fatalf("Peek(old1) = %d, %v, %v; want 1, true, true", v, ok, old)
	}
	if _, _, old := m.Peek("old1"); !old {
		t.Fatal("Peek moved the entry")
	}
	if v, ok := m.Get("old1"); !ok || v != 1 {
		t.Fatalf("Get(old1) = %d, %v", v, ok)
	}
	if _, _, old := m.Peek("old1"); old {
		t.Fatal("Get left the promoted entry in the old generation")
	}
	if m.Len() != 5 {
		t.Fatalf("Len = %d after one promotion, want the 5 distinct keys", m.Len())
	}
	dropped := 0
	for i := 0; i < 3; i++ { // fills the current generation back to 4
		dropped += m.Put("new"+strconv.Itoa(i), i)
	}
	dropped += m.Put("new3", 3) // rotates: drops old0, old2, old3
	if dropped != 3 {
		t.Fatalf("second rotation dropped %d entries, want 3", dropped)
	}
	if _, ok := m.Get("old1"); !ok {
		t.Fatal("promoted entry evicted by the next rotation")
	}
	if _, ok := m.Get("old2"); ok {
		t.Fatal("unreferenced old-generation entry survived two rotations")
	}
}

// TestTableCounts: a Table counts every Get as one hit or one miss,
// old-generation hits included, and stays within its cap.
func TestTableCounts(t *testing.T) {
	tab := NewTable[string, int](8)
	for i := 0; i < 100; i++ {
		tab.Put("k"+strconv.Itoa(i), i)
		if n := tab.Stats().Len; n > 8 {
			t.Fatalf("after %d puts the table holds %d, cap is 8", i+1, n)
		}
	}
	if v, ok := tab.Get("k99"); !ok || v != 99 {
		t.Fatalf("Get(k99) = %d, %v", v, ok)
	}
	// An old-generation hit; promoting it into the full current
	// generation rotates, dropping k92..k94.
	if v, ok := tab.Get("k95"); !ok || v != 95 {
		t.Fatalf("Get(k95) = %d, %v", v, ok)
	}
	if _, ok := tab.Get("k0"); ok {
		t.Fatal("k0 survived 24 rotations")
	}
	st := tab.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Len != 5 {
		t.Fatalf("Stats = %+v, want 2 hits, 1 miss, 5 entries", st)
	}
	tab.Reset()
	if st := tab.Stats(); st.Len != 0 || st.Hits != 2 {
		t.Fatalf("Stats after Reset = %+v: entries must go, counters stay", st)
	}
}

// TestShardedBound: each shard holds at most cap/64, so the whole map
// stays within the cap, and a promotion within a shard moves the entry.
func TestShardedBound(t *testing.T) {
	s := NewSharded[uint64](4 * shards) // 4 per shard: rotates at 2
	for k := uint64(0); k < 10000; k++ {
		s.Put(k*7919, k)
	}
	if n := s.Stats().Len; n > 4*shards {
		t.Fatalf("sharded map holds %d, cap is %d", n, 4*shards)
	}
	s.Reset()
	// (k^(k>>32))%64 == 0 for all three keys: one shard.
	keys := []uint64{0, 1<<32 | 1, 2<<32 | 2}
	for _, k := range keys { // the third put rotates
		s.Put(k, k)
	}
	if v, ok := s.Get(keys[0]); !ok || v != keys[0] {
		t.Fatalf("Get(%d) = %d, %v", keys[0], v, ok)
	}
	if st := s.Stats(); st.Len != len(keys) || st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("Stats = %+v after one promotion, want %d entries and 1 hit", st, len(keys))
	}
}

// TestConcurrent: goroutines sharing a Table and a Sharded map over
// overlapping key ranges, rotating all the while. Run it under -race.
func TestConcurrent(t *testing.T) {
	const goroutines, ops = 8, 2000
	tab := NewTable[int, int](64)
	sh := NewSharded[int](16 * shards)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := (g*ops/2 + i) % 300
				if v, ok := tab.Get(k); ok && v != k {
					t.Errorf("table Get(%d) = %d", k, v)
				} else if !ok {
					tab.Put(k, k)
				}
				u := uint64(k) * 0x9e3779b97f4a7c15
				if v, ok := sh.Get(u); ok && v != k {
					t.Errorf("sharded Get(%d) = %d", u, v)
				} else if !ok {
					sh.Put(u, k)
				}
			}
		}(g)
	}
	wg.Wait()
	for name, st := range map[string]Stats{"table": tab.Stats(), "sharded": sh.Stats()} {
		if st.Hits+st.Misses != goroutines*ops {
			t.Errorf("%s: %d hits + %d misses, want %d probes", name, st.Hits, st.Misses, goroutines*ops)
		}
	}
	if n := tab.Stats().Len; n > 64 {
		t.Errorf("table holds %d, cap is 64", n)
	}
	if n := sh.Stats().Len; n > 16*shards {
		t.Errorf("sharded map holds %d, cap is %d", n, 16*shards)
	}
}
