package cluster

import (
	"reflect"
	"strings"
	"testing"

	"qilabel/internal/schema"
)

// figure2Trees reconstructs the three schema-tree fragments of Figure 2 /
// Table 1: vacations (Departing from, Going to, Seniors, Adults, Children),
// aa (From, To, Adults, Children, Infants) and british (Leaving from, Going
// to, Passengers 1:m).
func figure2Trees() []*schema.Tree {
	vacations := schema.NewTree("vacations",
		schema.NewField("Departing from", "c_Depart"),
		schema.NewField("Going to", "c_Dest"),
		schema.NewField("Seniors", "c_Senior"),
		schema.NewField("Adults", "c_Adult"),
		schema.NewField("Children", "c_Child"),
	)
	aa := schema.NewTree("aa",
		schema.NewField("From", "c_Depart"),
		schema.NewField("To", "c_Dest"),
		schema.NewField("Adults", "c_Adult"),
		schema.NewField("Children", "c_Child"),
		schema.NewField("Infants", "c_Infant"),
	)
	british := schema.NewTree("british",
		schema.NewField("Leaving from", "c_Depart"),
		schema.NewField("Going to", "c_Dest"),
		schema.NewMultiField("Passengers", "c_Senior", "c_Adult", "c_Child", "c_Infant"),
	)
	return []*schema.Tree{vacations, aa, british}
}

func TestExpandOneToMany(t *testing.T) {
	trees := figure2Trees()
	ExpandOneToMany(trees)
	british := trees[2]
	// The Passengers leaf must now be an internal node with four unlabeled
	// children in 1:1 correspondence with the clusters.
	var passengers *schema.Node
	british.Root.Walk(func(n *schema.Node) bool {
		if n.Label == "Passengers" {
			passengers = n
		}
		return true
	})
	if passengers == nil {
		t.Fatal("Passengers node disappeared")
	}
	if passengers.IsLeaf() {
		t.Fatal("Passengers should have become an internal node")
	}
	if len(passengers.Children) != 4 {
		t.Fatalf("Passengers has %d children, want 4", len(passengers.Children))
	}
	wantClusters := []string{"c_Senior", "c_Adult", "c_Child", "c_Infant"}
	for i, c := range passengers.Children {
		if c.Cluster != wantClusters[i] || c.Label != "" {
			t.Errorf("child %d = (%q, %q), want (\"\", %q)", i, c.Label, c.Cluster, wantClusters[i])
		}
	}
	if err := british.Validate(); err != nil {
		t.Errorf("expanded tree invalid: %v", err)
	}
}

// TestFromTrees derives the mapping of Figure 2's trees from their table.
func TestFromTrees(t *testing.T) {
	trees := figure2Trees()
	ExpandOneToMany(trees)
	m, err := NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// c_Depart, c_Dest, c_Senior, c_Adult, c_Child, c_Infant.
	if len(m.Clusters) != 6 {
		t.Fatalf("got %d clusters, want 6", len(m.Clusters))
	}
	// Table 1: the label "Passengers" must have been removed from the
	// clusters (the british members are unlabeled after expansion).
	adult := m.Get("c_Adult")
	if adult == nil {
		t.Fatal("missing c_Adult")
	}
	if got := adult.LabelFor("british"); got != "" {
		t.Errorf("british label for c_Adult = %q, want removed", got)
	}
	if got := adult.LabelFor("vacations"); got != "Adults" {
		t.Errorf("vacations label for c_Adult = %q, want Adults", got)
	}
	if got := adult.LabelFor("absent"); got != "" {
		t.Errorf("label for unknown interface = %q, want empty", got)
	}
	if f := adult.Frequency(); f != 3 {
		t.Errorf("c_Adult frequency = %d, want 3 (vacations, aa, british)", f)
	}
}

func TestFromTreesRejectsUnexpanded(t *testing.T) {
	trees := figure2Trees()
	if _, err := NewTable(trees).DeriveMapping(); err == nil {
		t.Fatal("DeriveMapping must reject unexpanded 1:m leaves")
	}
}

func TestFromTreesRejectsDuplicateMembership(t *testing.T) {
	tr := schema.NewTree("dup",
		schema.NewField("A", "c_X"),
		schema.NewField("B", "c_X"),
	)
	if _, err := NewTable([]*schema.Tree{tr}).DeriveMapping(); err == nil {
		t.Fatal("two fields of one interface in one cluster must be rejected")
	}
}

func TestClusterLabelsAndFrequency(t *testing.T) {
	c := &Cluster{Name: "c_T", Members: []Member{
		{"i1", schema.NewField("Class", "c_T")},
		{"i2", schema.NewField("Class of Ticket", "c_T")},
		{"i3", schema.NewField("Class", "c_T")},
		{"i4", schema.NewField("", "c_T")},
	}}
	if got := c.Labels(); !reflect.DeepEqual(got, []string{"Class", "Class of Ticket"}) {
		t.Errorf("Labels = %v", got)
	}
	freq := c.LabelFrequency()
	if freq["Class"] != 2 || freq["Class of Ticket"] != 1 {
		t.Errorf("LabelFrequency = %v", freq)
	}
}

func TestClusterInstances(t *testing.T) {
	c := &Cluster{Name: "c_C", Members: []Member{
		{"i1", schema.NewField("Class", "c_C", "economy", "business")},
		{"i2", schema.NewField("Flight Class", "c_C", "economy", "first")},
		{"i3", schema.NewField("Class", "c_C", "coach")},
	}}
	all := c.Instances("")
	if !reflect.DeepEqual(all, []string{"business", "coach", "economy", "first"}) {
		t.Errorf("Instances(all) = %v", all)
	}
	classOnly := c.Instances("Class")
	if !reflect.DeepEqual(classOnly, []string{"business", "coach", "economy"}) {
		t.Errorf("Instances(Class) = %v", classOnly)
	}
}

func TestBuildRelationTable2(t *testing.T) {
	// Reproduce Table 2: the airline group [c_Senior, c_Adult, c_Child,
	// c_Infant] over six interfaces.
	rows := []struct {
		iface                        string
		senior, adult, child, infant string
	}{
		{"aa", "", "Adults", "Children", ""},
		{"airfareplanet", "", "Adult", "Child", ""},
		{"airtravel", "", "Adult", "Child", "Infant"},
		{"british", "Seniors", "Adults", "Children", ""},
		{"economytravel", "", "Adults", "Children", "Infants"},
		{"vacations", "Seniors", "Adults", "Children", ""},
	}
	var trees []*schema.Tree
	for _, r := range rows {
		var kids []*schema.Node
		for _, f := range []struct{ label, cl string }{
			{r.senior, "c_Senior"}, {r.adult, "c_Adult"},
			{r.child, "c_Child"}, {r.infant, "c_Infant"},
		} {
			if f.label != "" {
				kids = append(kids, schema.NewField(f.label, f.cl))
			}
		}
		trees = append(trees, schema.NewTree(r.iface, kids...))
	}
	m, err := NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	group := []*Cluster{m.Get("c_Senior"), m.Get("c_Adult"), m.Get("c_Child"), m.Get("c_Infant")}
	rel := NewRelations(Interfaces(trees)).Build(group)
	if len(rel.Tuples) != 6 {
		t.Fatalf("got %d tuples, want 6", len(rel.Tuples))
	}
	brit := rel.Tuples[3]
	if brit.Interface != "british" ||
		!reflect.DeepEqual(brit.Labels, []string{"Seniors", "Adults", "Children", ""}) {
		t.Errorf("british tuple = %+v", brit)
	}
	if brit.NonNull() != 3 {
		t.Errorf("british NonNull = %d, want 3", brit.NonNull())
	}
	s := rel.String()
	if !strings.Contains(s, "british") || !strings.Contains(s, "c_Senior") {
		t.Errorf("relation rendering incomplete:\n%s", s)
	}
}

func TestBuildRelationDiscardsAllNullTuples(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("labeled", schema.NewField("A", "c_1")),
		schema.NewTree("unlabeled", schema.NewField("", "c_1")),
		schema.NewTree("absent", schema.NewField("B", "c_other")),
	}
	m, err := NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	rel := NewRelations(Interfaces(trees)).Build([]*Cluster{m.Get("c_1")})
	if len(rel.Tuples) != 1 || rel.Tuples[0].Interface != "labeled" {
		t.Errorf("tuples = %+v, want only the labeled interface", rel.Tuples)
	}
}

func TestMappingValidate(t *testing.T) {
	bad := NewMapping(&Cluster{Name: ""})
	if err := bad.Validate(); err == nil {
		t.Error("unnamed cluster must fail")
	}
	dup := NewMapping(&Cluster{Name: "c"}, &Cluster{Name: "c"})
	if err := dup.Validate(); err == nil {
		t.Error("duplicate cluster names must fail")
	}
	var nilm *Mapping
	if err := nilm.Validate(); err == nil {
		t.Error("nil mapping must fail")
	}
	nilLeaf := NewMapping(&Cluster{Name: "c", Members: []Member{{"i", nil}}})
	if err := nilLeaf.Validate(); err == nil {
		t.Error("nil member leaf must fail")
	}
}
