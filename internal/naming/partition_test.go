package naming

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/lexicon"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// randomRelation builds a small relation from a seed: 2-5 clusters, 2-10
// tuples, labels drawn from a pool with deliberate overlaps so partitions
// of every size arise.
func randomRelation(seed int64) *cluster.Relation {
	x := uint64(seed)
	next := func(n int) int {
		x = x*6364136223846793005 + 1442695040888963407
		v := int((x >> 33) % uint64(n))
		return v
	}
	pool := []string{"", "Adults", "Adult", "Children", "Child", "Seniors",
		"Class", "Class of Ticket", "Preferred Airline", "Airline Preference",
		"Area of Study", "Field of Work", "Min", "Max", "From", "To"}
	nCols := 2 + next(4)
	nRows := 2 + next(9)
	rel := &cluster.Relation{}
	for c := 0; c < nCols; c++ {
		rel.Clusters = append(rel.Clusters, &cluster.Cluster{Name: string(rune('A' + c))})
	}
	for r := 0; r < nRows; r++ {
		t := cluster.Tuple{
			Interface: string(rune('a' + r)),
			Labels:    make([]string, nCols),
			Instances: make([][]string, nCols),
		}
		for c := 0; c < nCols; c++ {
			t.Labels[c] = pool[next(len(pool))]
		}
		if t.NonNull() > 0 {
			rel.Tuples = append(rel.Tuples, t)
		}
	}
	return rel
}

// TestPartitionsArePartition: every tuple lands in exactly one partition,
// and tuples within a partition are connected by the consistency relation.
func TestPartitionsArePartition(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		for level := LevelString; level <= LevelSynonymy; level++ {
			parts := s.Partitions(rel, level)
			count := 0
			for _, p := range parts {
				count += len(p.Tuples)
				if !connected(s, p.Tuples, level) {
					return false
				}
			}
			if count != len(rel.Tuples) {
				return false
			}
			// Maximality: no two tuples of different partitions are
			// consistent.
			for i := 0; i < len(parts); i++ {
				for j := i + 1; j < len(parts); j++ {
					for _, a := range parts[i].Tuples {
						for _, b := range parts[j].Tuples {
							if s.TuplesConsistent(a, b, level) {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// connected verifies the tuples form one connected component under the
// consistency relation at the given level.
func connected(s *Semantics, tuples []cluster.Tuple, level Level) bool {
	if len(tuples) <= 1 {
		return true
	}
	seen := make([]bool, len(tuples))
	queue := []int{0}
	seen[0] = true
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		for j := range tuples {
			if !seen[j] && s.TuplesConsistent(tuples[i], tuples[j], level) {
				seen[j] = true
				queue = append(queue, j)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// TestPartitionsMonotoneInLevel: weakening the level never increases the
// number of partitions (levels are cumulative).
func TestPartitionsMonotoneInLevel(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		prev := -1
		for level := LevelString; level <= LevelSynonymy; level++ {
			n := len(s.Partitions(rel, level))
			if prev >= 0 && n > prev {
				return false
			}
			prev = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCombineClosureProvenance: every label of every closure tuple appears
// in the same column of some original tuple, and the originals are kept.
func TestCombineClosureProvenance(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		closure := s.CombineClosure(rel.Tuples, LevelSynonymy)
		colLabels := make([]map[string]bool, len(rel.Clusters))
		for c := range colLabels {
			colLabels[c] = map[string]bool{}
			for _, t := range rel.Tuples {
				colLabels[c][t.Labels[c]] = true
			}
		}
		keys := map[string]bool{}
		for _, t := range closure {
			keys[tupleKey(t)] = true
			for c, l := range t.Labels {
				if l != "" && !colLabels[c][l] {
					return false
				}
			}
		}
		for _, t := range rel.Tuples {
			if !keys[tupleKey(t)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestGreedyCoversMatchClosureCoverage: for small partitions, the greedy
// covers reach the same per-column coverage as the exhaustive closure.
func TestGreedyCoversMatchClosureCoverage(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		for _, p := range s.Partitions(rel, LevelSynonymy) {
			if len(p.Tuples) > 8 {
				continue
			}
			closure := s.CombineClosure(p.Tuples, LevelSynonymy)
			bestClosure := 0
			for _, t := range closure {
				if n := t.NonNull(); n > bestClosure {
					bestClosure = n
				}
			}
			bestGreedy := 0
			for _, t := range s.greedyCovers(p, LevelSynonymy) {
				if n := t.NonNull(); n > bestGreedy {
					bestGreedy = n
				}
			}
			if bestGreedy < bestClosure {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSolveGroupLabelProvenance: the solver's labels always come from the
// relation's own columns.
func TestSolveGroupLabelProvenance(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		out := s.SolveGroup(rel, SolverOptions{})
		for _, sol := range out.Solutions {
			for c, l := range sol.Labels {
				if l == "" {
					continue
				}
				found := false
				for _, t := range rel.Tuples {
					if t.Labels[c] == l {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSolveGroupAlwaysReturnsSomething: any non-empty relation yields at
// least one solution (consistent or partially consistent).
func TestSolveGroupAlwaysReturnsSomething(t *testing.T) {
	s := NewSemantics(nil)
	f := func(seed int64) bool {
		rel := randomRelation(seed)
		if len(rel.Tuples) == 0 {
			return true
		}
		out := s.SolveGroup(rel, SolverOptions{})
		return len(out.Solutions) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// corpusRelations integrates a corpus on its annotated clusters and builds
// the group relation of every group, the root group last, as RunTable
// does.
func corpusRelations(t *testing.T, trees []*schema.Tree) []*cluster.Relation {
	t.Helper()
	mr, _ := pipeline(t, Options{}, trees...)
	relations := cluster.NewRelations(cluster.Interfaces(mr.Sources))
	var rels []*cluster.Relation
	for _, g := range append(mr.Groups, mr.Root) {
		if len(g) > 0 {
			rels = append(rels, relations.Build(g))
		}
	}
	return rels
}

// TestBlockedPartitionsMatchExhaustive: at every level, the blocked
// partitioning equals the reference all-pairs loop (same partitions, same
// tuple order, same Covered), both when one forest is raised through the
// levels, as SolveGroup does, and when Partitions starts afresh. One
// blocked Semantics serves every relation of an input set, so scratch
// left by one relation must not leak into the next. Inputs: randomRelation
// seeds, every group relation of the seven domains, and synth small and
// medium seeds under their own lexicons.
func TestBlockedPartitionsMatchExhaustive(t *testing.T) {
	type input struct {
		name string
		lex  *lexicon.Lexicon
		rels []*cluster.Relation
	}
	var inputs []input
	var random []*cluster.Relation
	for seed := int64(0); seed < 500; seed++ {
		random = append(random, randomRelation(seed))
	}
	inputs = append(inputs, input{"random", nil, random})
	for _, d := range dataset.Domains() {
		inputs = append(inputs, input{d.Name, nil, corpusRelations(t, d.Generate())})
	}
	for _, preset := range []string{"small", "medium"} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg, err := synth.Preset(preset)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			trees, lex, err := synth.GenerateWithLexicon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%s/seed=%d", preset, seed), lex, corpusRelations(t, trees)})
		}
	}
	for _, in := range inputs {
		ref := NewSemanticsUnmemoized(in.lex)
		blocked := NewSemantics(in.lex)
		tuples := 0
		for r, rel := range in.rels {
			tuples += len(rel.Tuples)
			forest := newTupleForest(rel)
			for level := LevelString; level <= LevelSynonymy; level++ {
				want := ref.Partitions(rel, level)
				blocked.raise(forest, level)
				if err := samePartitions(blocked.partitions(forest), want); err != nil {
					t.Fatalf("%s relation %d at %v, raised: %v", in.name, r, level, err)
				}
				if err := samePartitions(blocked.Partitions(rel, level), want); err != nil {
					t.Fatalf("%s relation %d at %v, fresh: %v", in.name, r, level, err)
				}
			}
		}
		t.Logf("%s: %d relations, %d tuples", in.name, len(in.rels), tuples)
	}
}

// samePartitions reports how got differs from want, or nil.
func samePartitions(got, want []*Partition) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d partitions, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i].Tuples, want[i].Tuples) {
			return fmt.Errorf("partition %d tuples %v, want %v", i, got[i].Tuples, want[i].Tuples)
		}
		if !reflect.DeepEqual(got[i].Covered, want[i].Covered) {
			return fmt.Errorf("partition %d covers %v, want %v", i, got[i].Covered, want[i].Covered)
		}
	}
	return nil
}

// TestPartitionProbeCount counts the Relate calls the blocked partitioning
// makes in a cold naming run over the mega preset (192 sources, its
// generator clusters): at most 1,000, and the same at Parallelism 1 and 4.
// The all-pairs loop made 509,061 TuplesConsistent calls per cold mega
// integration. Hotels, where a few groups reach the equality level, shows
// the counter is live.
func TestPartitionProbeCount(t *testing.T) {
	if testing.Short() {
		t.Skip("mega corpus skipped in -short mode")
	}
	mega := func() ([]*schema.Tree, *lexicon.Lexicon) {
		cfg, err := synth.Preset("mega")
		if err != nil {
			t.Fatal(err)
		}
		trees, lex, err := synth.GenerateWithLexicon(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return trees, lex
	}
	hotels := func() ([]*schema.Tree, *lexicon.Lexicon) {
		d, err := dataset.ByName("Hotels")
		if err != nil {
			t.Fatal(err)
		}
		return d.Generate(), nil
	}
	for _, c := range []struct {
		name     string
		corpus   func() ([]*schema.Tree, *lexicon.Lexicon)
		min, max int64
	}{{"Hotels", hotels, 1, 1000}, {"mega", mega, 0, 1000}} {
		probes := func(parallelism int) int64 {
			trees, lex := c.corpus()
			tab, mr := merged(t, trees...)
			a := PrecomputeAnalysis(lex, tab.Labels)
			if _, err := RunTable(context.Background(), mr, tab, Options{Lexicon: lex, Parallelism: parallelism, Analysis: a}); err != nil {
				t.Fatal(err)
			}
			return a.partitionProbes.Load()
		}
		serial, parallel := probes(1), probes(4)
		t.Logf("%s: %d Relate probes serial, %d at Parallelism 4", c.name, serial, parallel)
		if serial != parallel {
			t.Fatalf("%s: Relate probes depend on Parallelism: %d serial, %d parallel", c.name, serial, parallel)
		}
		if serial < c.min || serial > c.max {
			t.Fatalf("%s: %d Relate probes, want %d to %d", c.name, serial, c.min, c.max)
		}
	}
}
