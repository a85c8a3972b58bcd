package cluster

import (
	"reflect"
	"testing"

	"qilabel/internal/schema"
)

// These table tests pin the edge cases the online discovery path leans
// on: it derives a Mapping from whatever trees a discovered domain
// holds, so empty trees, annotation-free trees and degenerate relations
// must all round-trip without error.

func TestFromTreesEdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		trees    []*schema.Tree
		clusters int
		wantErr  bool
	}{
		{name: "no trees", trees: nil, clusters: 0},
		{name: "empty trees", trees: []*schema.Tree{
			schema.NewTree("a"), schema.NewTree("b"),
		}, clusters: 0},
		{name: "only unannotated leaves", trees: []*schema.Tree{
			schema.NewTree("a", schema.NewField("Adults", "")),
			schema.NewTree("b", schema.NewField("Children", "")),
		}, clusters: 0},
		{name: "mixed annotated and unannotated", trees: []*schema.Tree{
			schema.NewTree("a",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Promo Code", "")),
		}, clusters: 1},
		{name: "same cluster from two interfaces", trees: []*schema.Tree{
			schema.NewTree("a", schema.NewField("Adults", "c_Adult")),
			schema.NewTree("b", schema.NewField("Occupants", "c_Adult")),
		}, clusters: 1},
		{name: "duplicate membership rejected", trees: []*schema.Tree{
			schema.NewTree("a",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Grown-ups", "c_Adult")),
		}, wantErr: true},
		{name: "unexpanded 1:m rejected", trees: []*schema.Tree{
			schema.NewTree("a", schema.NewMultiField("Passengers", "c_Adult", "c_Child")),
		}, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := FromTrees(tc.trees)
			if tc.wantErr {
				if err == nil {
					t.Fatal("error expected, got none")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Clusters) != tc.clusters {
				t.Fatalf("%d clusters, want %d", len(m.Clusters), tc.clusters)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("derived mapping invalid: %v", err)
			}
		})
	}
}

func TestExpandOneToManyEdgeCases(t *testing.T) {
	t.Run("no trees", func(t *testing.T) {
		ExpandOneToMany(nil) // must not panic
	})
	t.Run("no multi-cluster leaves is a no-op", func(t *testing.T) {
		tree := schema.NewTree("a",
			schema.NewGroup("G", schema.NewField("Adults", "c_Adult", "1", "2")),
		)
		before := tree.CanonicalHash()
		ExpandOneToMany([]*schema.Tree{tree})
		if tree.CanonicalHash() != before {
			t.Fatal("expansion modified a tree without 1:m leaves")
		}
	})
	t.Run("expansion drops aggregate instances and marks the node", func(t *testing.T) {
		leaf := schema.NewMultiField("Passengers", "c_Adult", "c_Child")
		leaf.Instances = []string{"1", "2"}
		tree := schema.NewTree("a", leaf)
		ExpandOneToMany([]*schema.Tree{tree})
		if leaf.IsLeaf() || !leaf.Aggregated || leaf.Cluster != "" {
			t.Fatalf("expanded node not an aggregated internal node: %+v", leaf)
		}
		if leaf.Instances != nil || leaf.MultiClusters != nil {
			t.Fatalf("aggregate payload survived expansion: %+v", leaf)
		}
		var got []string
		for _, c := range leaf.Children {
			got = append(got, c.Cluster)
		}
		if !reflect.DeepEqual(got, []string{"c_Adult", "c_Child"}) {
			t.Fatalf("children %v, want the many-side clusters in order", got)
		}
	})
	t.Run("idempotent", func(t *testing.T) {
		tree := schema.NewTree("a", schema.NewMultiField("Passengers", "c_Adult", "c_Child"))
		ExpandOneToMany([]*schema.Tree{tree})
		once := tree.CanonicalHash()
		ExpandOneToMany([]*schema.Tree{tree})
		if tree.CanonicalHash() != once {
			t.Fatal("second expansion changed the tree")
		}
	})
	t.Run("nested under a group", func(t *testing.T) {
		tree := schema.NewTree("a",
			schema.NewGroup("Who",
				schema.NewMultiField("Passengers", "c_Adult", "c_Child"),
				schema.NewField("Infants", "c_Infant"),
			),
		)
		ExpandOneToMany([]*schema.Tree{tree})
		m, err := FromTrees([]*schema.Tree{tree})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"c_Adult", "c_Child", "c_Infant"} {
			if m.Get(name) == nil {
				t.Fatalf("cluster %s missing after nested expansion", name)
			}
		}
	})
}

func TestBuildRelationEdgeCases(t *testing.T) {
	adults := &Cluster{Name: "c_Adult", Members: []Member{
		{Interface: "a", Leaf: schema.NewField("Adults", "c_Adult", "1", "2")},
		{Interface: "b", Leaf: schema.NewField("", "c_Adult", "3")},
	}}
	children := &Cluster{Name: "c_Child", Members: []Member{
		{Interface: "a", Leaf: schema.NewField("Children", "c_Child")},
	}}

	t.Run("empty group yields no tuples", func(t *testing.T) {
		r := BuildRelation(nil, []string{"a", "b"})
		if len(r.Tuples) != 0 {
			t.Fatalf("%d tuples from an empty group", len(r.Tuples))
		}
	})
	t.Run("no interfaces yields no tuples", func(t *testing.T) {
		r := BuildRelation([]*Cluster{adults}, nil)
		if len(r.Tuples) != 0 {
			t.Fatalf("%d tuples from no interfaces", len(r.Tuples))
		}
	})
	t.Run("all-null tuples discarded, instances of empty labels kept", func(t *testing.T) {
		// Interface b supplies only an unlabeled member: its tuple is all
		// null labels, so it is discarded wholesale; interface c supplies
		// nothing at all. Only a survives.
		r := BuildRelation([]*Cluster{adults, children}, []string{"a", "b", "c"})
		if len(r.Tuples) != 1 || r.Tuples[0].Interface != "a" {
			t.Fatalf("tuples %+v, want only interface a", r.Tuples)
		}
		if got := r.Tuples[0].NonNull(); got != 2 {
			t.Fatalf("NonNull = %d, want 2", got)
		}
		// a's unlabeled-member instances still ride along for LI6/LI7.
		if !reflect.DeepEqual(r.Tuples[0].Instances[0], []string{"1", "2"}) {
			t.Fatalf("instances %+v", r.Tuples[0].Instances)
		}
	})
	t.Run("whitespace-only labels are null", func(t *testing.T) {
		blank := &Cluster{Name: "c_X", Members: []Member{
			{Interface: "a", Leaf: schema.NewField("   ", "c_X")},
		}}
		r := BuildRelation([]*Cluster{blank}, []string{"a"})
		if len(r.Tuples) != 0 {
			t.Fatalf("whitespace label produced a tuple: %+v", r.Tuples)
		}
	})
}
