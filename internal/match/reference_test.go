package match

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
	"qilabel/internal/synth"
)

// This file keeps the tree walk the table replaced as the reference the
// table-driven fields and block index are compared against: fields from
// Leaves, each normalized on its own, and block keys hashed per field.

// treeFields is the tree-walk collectFields.
func treeFields(trees []*schema.Tree) ([]fieldInfo, []int32) {
	var fields []fieldInfo
	var ifaces []int32
	ordinal := make(map[string]int32)
	for _, t := range trees {
		o, ok := ordinal[t.Interface]
		if !ok {
			o = int32(len(ordinal))
			ordinal[t.Interface] = o
		}
		for _, leaf := range t.Leaves() {
			f := fieldInfo{leaf: leaf, label: strings.TrimSpace(leaf.Label), id: -1}
			if len(leaf.Instances) > 0 {
				f.inst = make([]string, len(leaf.Instances))
				for i, v := range leaf.Instances {
					f.inst[i] = strings.ToLower(strings.TrimSpace(v))
				}
				slices.Sort(f.inst)
				f.inst = slices.Compact(f.inst)
			}
			fields = append(fields, f)
			ifaces = append(ifaces, o)
		}
	}
	return fields, ifaces
}

// treeIndex is the per-field block index: every field's keys and values
// hashed into the key spaces on their own, each key's postings a slice of
// their own.
type treeIndex struct {
	off, ids, at []int32
	postings     [][]int32
	byKey        map[string]int32
	byValue      map[string]int32
}

func treeBlockIndex(sem *naming.Semantics, fields []fieldInfo) treeIndex {
	x := treeIndex{off: []int32{0}, byKey: map[string]int32{}, byValue: map[string]int32{}}
	post := func(space map[string]int32, k string) {
		i := int32(len(x.off) - 1)
		id, ok := space[k]
		if !ok {
			id = int32(len(x.postings))
			space[k] = id
			x.postings = append(x.postings, nil)
		}
		x.ids = append(x.ids, id)
		x.at = append(x.at, int32(len(x.postings[id])))
		x.postings[id] = append(x.postings[id], i)
	}
	for _, f := range fields {
		if f.label != "" {
			for _, k := range sem.EquivalenceKeys(f.label) {
				post(x.byKey, k)
			}
		}
		for _, v := range f.inst {
			post(x.byValue, v)
		}
		x.off = append(x.off, int32(len(x.ids)))
	}
	return x
}

// matchCorpora lists the expanded inputs of the reference comparison: the
// seven domains, the small and medium synth presets at seeds 1–4, and
// random trees with blank, repeated and case-varied labels and values, 1:m
// fields and repeated interface names.
func matchCorpora(t *testing.T) map[string][]*schema.Tree {
	t.Helper()
	out := make(map[string][]*schema.Tree)
	for _, d := range dataset.Domains() {
		out[d.Name] = d.Generate()
	}
	for _, size := range []string{"small", "medium"} {
		for seed := uint64(1); seed <= 4; seed++ {
			cfg, err := synth.Preset(size)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Seed = seed
			if out[fmt.Sprintf("%s/%d", size, seed)], err = synth.Generate(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	words := []string{"", " ", "From", "from ", "Depart", "Departure City", "City", " a", "A", "b"}
	for seed := uint64(0); seed < 30; seed++ {
		r := rand.New(rand.NewPCG(seed, 5))
		trees := make([]*schema.Tree, 2+r.IntN(6))
		for i := range trees {
			var kids []*schema.Node
			for k := 1 + r.IntN(6); k > 0; k-- {
				var inst []string
				for v := r.IntN(4); v > 0; v-- {
					inst = append(inst, words[r.IntN(len(words))])
				}
				f := schema.NewField(words[r.IntN(len(words))], "", inst...)
				if r.IntN(6) == 0 {
					f = schema.NewMultiField(words[r.IntN(len(words))], "p", "q")
				}
				if r.IntN(3) == 0 {
					f = schema.NewGroup(words[r.IntN(len(words))], f)
				}
				kids = append(kids, f)
			}
			trees[i] = schema.NewTree(fmt.Sprintf("s%d", r.IntN(3)), kids...)
		}
		out[fmt.Sprintf("random/%d", seed)] = trees
	}
	for _, trees := range out {
		cluster.ExpandOneToMany(trees)
	}
	return out
}

// TestFieldsMatchTreeWalk compares the table's fields (leaf, trimmed
// label, folded instance set, interface ordinal) and block index (key IDs
// per field, posting lists, and so the probed candidate pairs) with the
// tree walk's.
func TestFieldsMatchTreeWalk(t *testing.T) {
	for name, trees := range matchCorpora(t) {
		tab := cluster.NewTable(trees)
		fields, ifaces := tableFields(tab)
		want, wantIfaces := treeFields(trees)
		if len(fields) != len(want) || !slices.Equal(ifaces, wantIfaces) {
			t.Fatalf("%s: %d fields %v, want %d %v", name, len(fields), ifaces, len(want), wantIfaces)
		}
		var labels []string
		for i, f := range fields {
			w := want[i]
			if f.leaf != w.leaf || f.label != w.label || !slices.Equal(f.inst, w.inst) || (f.inst == nil) != (w.inst == nil) {
				t.Fatalf("%s: field %d = %q %q, want %q %q", name, i, f.label, f.inst, w.label, w.inst)
			}
			if f.label != "" {
				labels = append(labels, f.label)
			}
		}
		sem := naming.PrecomputeAnalysis(nil, labels).Semantics()
		index := newBlockIndex(tab)
		for _, l := range tab.Leaves {
			index.add(sem, tab, l.Trimmed, l.Set)
		}
		index.finish()
		ref := treeBlockIndex(sem, want)
		if !slices.Equal(index.off, ref.off) || !slices.Equal(index.ids, ref.ids) || !slices.Equal(index.at, ref.at) ||
			len(index.count) != len(ref.postings) {
			t.Fatalf("%s: the block index differs from the per-field one", name)
		}
		for id, list := range ref.postings {
			if !slices.Equal(index.postings(int32(id)), list) {
				t.Fatalf("%s: key %d posts %v, want %v", name, id, index.postings(int32(id)), list)
			}
		}
	}
}
