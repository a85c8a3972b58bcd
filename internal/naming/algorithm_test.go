package naming

import (
	"context"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
)

// merged runs the stages before naming over source trees as the
// Integrator does, in the order given: 1:m expansion, the table and its
// derived mapping (tableFor), then merge.MergeTable. It returns RunTable's
// inputs.
func merged(tb testing.TB, trees ...*schema.Tree) (*cluster.Table, *merge.Result) {
	tb.Helper()
	cluster.ExpandOneToMany(trees)
	tab := tableFor(trees...)
	mr, err := merge.MergeTable(context.Background(), tab)
	if err != nil {
		tb.Fatal(err)
	}
	return tab, mr
}

// pipeline runs every stage over source trees: merged, then RunTable.
func pipeline(tb testing.TB, opts Options, trees ...*schema.Tree) (*merge.Result, *Result) {
	tb.Helper()
	tab, mr := merged(tb, trees...)
	res, err := RunTable(context.Background(), mr, tab, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return mr, res
}

// airlineSources is a compact airline domain exercising groups, a 1:m
// match, internal-node labels and a root-level field.
func airlineSources() []*schema.Tree {
	return []*schema.Tree{
		schema.NewTree("aa",
			schema.NewGroup("Where do you want to go?",
				schema.NewField("From", "c_Depart"),
				schema.NewField("To", "c_Dest"),
			),
			schema.NewGroup("Passengers",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
			),
		),
		schema.NewTree("british",
			schema.NewGroup("Where and when do you want to travel?",
				schema.NewField("Leaving from", "c_Depart"),
				schema.NewField("Going to", "c_Dest"),
			),
			schema.NewGroup("How many people are going?",
				schema.NewField("Seniors", "c_Senior"),
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
			),
		),
		schema.NewTree("economytravel",
			schema.NewGroup("Passengers",
				schema.NewField("Seniors", "c_Senior"),
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
				schema.NewField("Infants", "c_Infant"),
			),
			schema.NewField("Promotional Code", "c_Promo"),
		),
		schema.NewTree("vacations",
			schema.NewMultiField("Passengers", "c_Senior", "c_Adult", "c_Child", "c_Infant"),
			schema.NewField("Promotional Code", "c_Promo"),
		),
	}
}

func TestRunAirlineEndToEnd(t *testing.T) {
	mr, res := pipeline(t, Options{}, airlineSources()...)

	// Every leaf of the passenger group must carry the plural labels.
	want := map[string]string{
		"c_Senior": "Seniors",
		"c_Adult":  "Adults",
		"c_Child":  "Children",
		"c_Infant": "Infants",
	}
	for cl, label := range want {
		leaf := mr.LeafOf[cl]
		if leaf == nil {
			t.Fatalf("no leaf for %s", cl)
		}
		if leaf.Label != label {
			t.Errorf("leaf %s = %q, want %q", cl, leaf.Label, label)
		}
	}
	// The route fields get a consistent pair from one source.
	dep, dst := mr.LeafOf["c_Depart"].Label, mr.LeafOf["c_Dest"].Label
	okPairs := map[string]string{"From": "To", "Leaving from": "Going to"}
	if okPairs[dep] != dst {
		t.Errorf("route labels (%q, %q) are not a consistent source pair", dep, dst)
	}
	// The passenger group's parent should be labeled from the sources
	// (Passengers or one of the question phrasings).
	var passengersNode *schema.Node
	for _, nr := range res.Nodes {
		if len(nr.Clusters) == 4 {
			passengersNode = nr.Node
		}
	}
	if passengersNode == nil {
		t.Fatal("no internal node over the four passenger clusters")
	}
	if passengersNode.Label == "" {
		t.Error("passenger group's parent should be labeled")
	}
	// Root-level promo field is labeled.
	if got := mr.LeafOf["c_Promo"].Label; got != "Promotional Code" {
		t.Errorf("promo label = %q", got)
	}
	// Classification must not be inconsistent: all groups admit solutions.
	if res.Class == ClassInconsistent {
		t.Errorf("classification = %v\n%s", res.Class, res.Summary())
	}
	// Summary mentions the classification and the groups.
	sum := res.Summary()
	if !strings.Contains(sum, "classification:") || !strings.Contains(sum, "c_Adult") {
		t.Errorf("summary incomplete:\n%s", sum)
	}
}

func TestRunLeafInstancesAreUnioned(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1", schema.NewField("Class", "c_Class", "economy", "business")),
		schema.NewTree("s2", schema.NewField("Flight Class", "c_Class", "economy", "first")),
	}
	mr, _ := pipeline(t, Options{}, trees...)
	leaf := mr.LeafOf["c_Class"]
	got := strings.Join(leaf.Instances, ",")
	if got != "business,economy,first" {
		t.Errorf("instances = %q, want the union", got)
	}
}

func TestRunInconsistentWhenGroupUnsolvable(t *testing.T) {
	// A group whose relation splits into two unlinkable halves, placed as a
	// regular group (not under the root): Definition 8 makes the interface
	// inconsistent.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("G",
				schema.NewField("Alpha", "c_A"),
				schema.NewField("Beta", "c_B"),
			),
			schema.NewField("Promo", "c_P"),
		),
		schema.NewTree("s2",
			schema.NewGroup("G",
				schema.NewField("Gamma", "c_C"),
				schema.NewField("Delta", "c_D"),
			),
			schema.NewField("Promo", "c_P"),
		),
		schema.NewTree("s3",
			schema.NewGroup("G",
				schema.NewField("Epsilon", "c_A"),
				schema.NewField("Zeta", "c_C"),
			),
			schema.NewField("Promo", "c_P"),
		),
	}
	_, res := pipeline(t, Options{}, trees...)
	var grp *GroupReport
	for _, gr := range res.Groups {
		if !gr.IsRoot && len(gr.Clusters) == 4 {
			grp = gr
		}
	}
	if grp == nil {
		t.Fatal("expected the four clusters to merge into one group")
	}
	if grp.Chosen.Consistent {
		t.Fatalf("group should only admit a partially consistent solution; got %v", grp.Chosen.Labels)
	}
	if res.Class != ClassInconsistent {
		t.Errorf("classification = %v, want inconsistent", res.Class)
	}
	// The partially consistent solution still labels every cluster.
	for i, l := range grp.Chosen.Labels {
		if l == "" {
			t.Errorf("cluster %s unlabeled", grp.Clusters[i])
		}
	}
}

func TestRunRootGroupPartialIsAccepted(t *testing.T) {
	// The same unlinkable labels directly under the root: C_root accepts
	// partially consistent solutions, so the interface is not inconsistent.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewField("Alpha", "c_A"),
			schema.NewField("Beta", "c_B"),
		),
		schema.NewTree("s2",
			schema.NewField("Gamma", "c_C"),
			schema.NewField("Delta", "c_D"),
		),
	}
	_, res := pipeline(t, Options{}, trees...)
	if res.Class == ClassInconsistent {
		t.Errorf("root-group partial solutions must be accepted; got %v\n%s",
			res.Class, res.Summary())
	}
}

func TestRunDefinition6Consistency(t *testing.T) {
	// Sources where the group's solution and the parent label come from the
	// same partition: the parent's label must be Definition 6 consistent
	// and the tree fully consistent.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("Passengers",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
			),
			schema.NewField("Promo", "c_P"),
		),
		schema.NewTree("s2",
			schema.NewGroup("Passengers",
				schema.NewField("Adults", "c_Adult"),
				schema.NewField("Children", "c_Child"),
				schema.NewField("Infants", "c_Infant"),
			),
			schema.NewField("Promo", "c_P"),
		),
	}
	_, res := pipeline(t, Options{}, trees...)
	if res.Class != ClassConsistent {
		t.Errorf("classification = %v, want consistent\n%s", res.Class, res.Summary())
	}
	for _, nr := range res.Nodes {
		if nr.Assigned == "Passengers" && !nr.GroupConsistent {
			t.Error("Passengers label should be Definition 6 consistent")
		}
	}
}

func TestRunWeaklyConsistent(t *testing.T) {
	// Table 5 / Figure 6's situation: Car Information sits above the year
	// group, but its origin interface supplies the tuple (Year, To Year),
	// which is in a different partition than the (Min, Max) and (From, To)
	// tuples the Year Range label originates from. Whatever solution is
	// chosen for the year group, one of the two internal labels fails
	// Definition 6, so the tree is only weakly consistent.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("Year Range",
				schema.NewField("Min", "c_YFrom"),
				schema.NewField("Max", "c_YTo"),
			),
			schema.NewField("Make", "c_Make"),
			schema.NewField("Promo", "c_Promo"),
		),
		schema.NewTree("s2",
			schema.NewGroup("Year Range",
				schema.NewField("From", "c_YFrom"),
				schema.NewField("To", "c_YTo"),
			),
			schema.NewField("Brand", "c_Make"),
			schema.NewField("Promo", "c_Promo"),
		),
		schema.NewTree("s3",
			schema.NewGroup("Car Information",
				schema.NewGroup("", // year subgroup unlabeled on this source
					schema.NewField("Year", "c_YFrom"),
					schema.NewField("To Year", "c_YTo"),
				),
				schema.NewField("Make", "c_Make"),
			),
			schema.NewField("Promo", "c_Promo"),
		),
	}
	_, res := pipeline(t, Options{}, trees...)
	if res.Class != ClassWeaklyConsistent {
		t.Fatalf("classification = %v, want weakly consistent\n%s", res.Class, res.Summary())
	}
	// Both internal nodes must still be labeled (generality holds); at
	// least one of them fails Definition 6.
	weak := 0
	for _, nr := range res.Nodes {
		if len(nr.Candidates) > 0 && nr.Assigned == "" {
			t.Errorf("node %v left unlabeled", nr.Clusters)
		}
		if nr.Assigned != "" && !nr.GroupConsistent {
			weak++
		}
	}
	if weak == 0 {
		t.Error("some internal label must fail Definition 6")
	}
}

func TestRunNilInput(t *testing.T) {
	if _, err := RunTable(context.Background(), nil, nil, Options{}); err == nil {
		t.Error("nil merge result must fail")
	}
}

func TestCountersAccumulate(t *testing.T) {
	_, res := pipeline(t, Options{}, airlineSources()...)
	if res.Counters.Total() == 0 {
		t.Error("inference rules should have fired on the airline pipeline")
	}
}

func TestClassString(t *testing.T) {
	if ClassConsistent.String() != "consistent" ||
		ClassWeaklyConsistent.String() != "weakly consistent" ||
		ClassInconsistent.String() != "inconsistent" {
		t.Error("Class.String misbehaves")
	}
	if LevelString.String() != "string" || Level(9).String() != "unknown" {
		t.Error("Level.String misbehaves")
	}
	if RelNone.String() != "none" {
		t.Error("Rel.String misbehaves")
	}
}
