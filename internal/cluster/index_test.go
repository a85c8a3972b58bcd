package cluster

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"qilabel/internal/schema"
)

// TestSharedInterfaceName pins the lookups of DeriveMapping and
// Relations.Build when two trees share an interface name: DeriveMapping
// rejects a second field for a cluster however many trees lie between the
// two, and every relation row of the name carries, per cluster, the first
// member of that interface.
func TestSharedInterfaceName(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("x", schema.NewField("A", "c1")),
		schema.NewTree("y", schema.NewField("C", "c1")),
		schema.NewTree("x", schema.NewField("B", "c2")),
	}
	m, err := NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	r := NewRelations(Interfaces(trees)).Build([]*Cluster{m.Get("c1"), m.Get("c2")})
	want := []Tuple{
		{Interface: "x", Labels: []string{"A", "B"}, Instances: make([][]string, 2)},
		{Interface: "y", Labels: []string{"C", ""}, Instances: make([][]string, 2)},
		{Interface: "x", Labels: []string{"A", "B"}, Instances: make([][]string, 2)},
	}
	if !reflect.DeepEqual(r.Tuples, want) {
		t.Fatalf("tuples %+v, want %+v", r.Tuples, want)
	}
	r.Tuples[0].Labels[0] = "changed"
	if r.Tuples[2].Labels[0] != "A" {
		t.Fatal("rows of a repeated interface share their labels")
	}

	trees = append(trees, schema.NewTree("x", schema.NewField("D", "c1")))
	_, err = NewTable(trees).DeriveMapping()
	if err == nil || err.Error() != "cluster: interface x supplies two fields for cluster c1" {
		t.Fatalf("error %v, want the duplicate-interface error", err)
	}

	// A cluster built by hand may hold two members of one interface; the
	// first wins, as MemberFor finds it.
	c := &Cluster{Name: "c", Members: []Member{
		{Interface: "x", Leaf: schema.NewField(" P ", "c", "p")},
		{Interface: "x", Leaf: schema.NewField("Q", "c", "q")},
	}}
	r = NewRelations([]string{"x"}).Build([]*Cluster{c})
	if len(r.Tuples) != 1 || r.Tuples[0].Labels[0] != "P" || r.Tuples[0].Instances[0][0] != "p" {
		t.Fatalf("tuples %+v, want the first member's", r.Tuples)
	}
}

// relationByScan is Relations.Build as a scan of each cluster's
// members per interface (MemberFor), the reference the indexed lookup
// must equal.
func relationByScan(group []*Cluster, interfaces []string) *Relation {
	r := &Relation{Clusters: group}
	for _, iface := range interfaces {
		tuple := Tuple{Interface: iface, Labels: make([]string, len(group)), Instances: make([][]string, len(group))}
		for i, c := range group {
			if m, ok := c.MemberFor(iface); ok {
				tuple.Labels[i] = strings.TrimSpace(m.Leaf.Label)
				tuple.Instances[i] = m.Leaf.Instances
			}
		}
		if tuple.NonNull() > 0 {
			r.Tuples = append(r.Tuples, tuple)
		}
	}
	return r
}

// TestBuildRelationMatchesScan compares Relations.Build with the scan over
// random groups whose clusters may hold several members of an interface,
// blank labels and interfaces no cluster has, listed with repeats.
func TestBuildRelationMatchesScan(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	for seed := 0; seed < 500; seed++ {
		names := make([]string, 1+r.IntN(6))
		for i := range names {
			names[i] = fmt.Sprintf("i%d", r.IntN(5))
		}
		group := make([]*Cluster, r.IntN(4))
		for i := range group {
			c := &Cluster{Name: fmt.Sprint("c", i)}
			for n := r.IntN(6); n > 0; n-- {
				label := []string{"", " ", "A", "b ", "A"}[r.IntN(5)]
				c.Members = append(c.Members, Member{
					Interface: fmt.Sprintf("i%d", r.IntN(6)),
					Leaf:      schema.NewField(label, c.Name, fmt.Sprint(seed, n)),
				})
			}
			group[i] = c
		}
		got, want := NewRelations(names).Build(group), relationByScan(group, names)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: %+v, want %+v", seed, got.Tuples, want.Tuples)
		}
	}
}
