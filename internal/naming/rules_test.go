package naming

// End-to-end exercises of the label-inference rules LI1–LI7: each test
// hands a minimal set of handcrafted source trees to the full pipeline
// (pipeline: the table, merge.MergeTable, RunTable) and asserts both the label the
// rule derives on the integrated tree and the rule's involvement counter
// in the aggregated Result.Counters (Figure 10). The companion tests in
// internal_test.go / isolated_test.go / groups_test.go drive the same
// rules at the function level; these verify the wiring — per-group and
// per-node counter slots merging into the result, isolated labels reaching
// the leaves — end to end.

import (
	"sort"
	"testing"

	"qilabel/internal/schema"
)

// nodeReport finds the report of the integrated internal node whose
// descendant leaf clusters are exactly the given set.
func nodeReport(t *testing.T, res *Result, clusters ...string) *NodeReport {
	t.Helper()
	sort.Strings(clusters)
	for _, nr := range res.Nodes {
		if len(nr.Clusters) != len(clusters) {
			continue
		}
		match := true
		for i := range clusters {
			if nr.Clusters[i] != clusters[i] {
				match = false
				break
			}
		}
		if match {
			return nr
		}
	}
	t.Fatalf("no integrated node over %v; have %+v", clusters, res.Nodes)
	return nil
}

// leafLabel returns the assigned label of the integrated leaf of the
// given cluster.
func leafLabel(t *testing.T, res *Result, clusterName string) string {
	t.Helper()
	var got string
	found := false
	res.Tree.Root.Walk(func(n *schema.Node) bool {
		if n.IsLeaf() && n.Cluster == clusterName {
			got, found = n.Label, true
		}
		return true
	})
	if !found {
		t.Fatalf("integrated tree has no leaf for cluster %s", clusterName)
	}
	return got
}

// TestPipelineLI1 — semantically equivalent labels merge: Location is a
// hypernym of Property Location and covers a subset of its leaves, so the
// two potentials merge (LI1), keep the more descriptive display form, and
// cover the whole node.
func TestPipelineLI1(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("Location",
				schema.NewField("State", "c_State"),
				schema.NewField("County", "c_County")),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2", schema.NewGroup("Property Location",
			schema.NewField("State", "c_State"),
			schema.NewField("County", "c_County"),
			schema.NewField("City", "c_City"))),
	)
	nr := nodeReport(t, res, "c_State", "c_County", "c_City")
	if nr.Assigned != "Property Location" {
		t.Errorf("assigned = %q, want the descriptive form Property Location", nr.Assigned)
	}
	if res.Counters.LI[1] == 0 {
		t.Error("LI1 must be counted in the aggregated result")
	}
}

// TestPipelineLI2 — a label recurring across interfaces whose accumulated
// coverage is exactly the node's leaf set becomes the label of the node.
func TestPipelineLI2(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("Location",
				schema.NewField("City", "c_City"),
				schema.NewField("State", "c_State")),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2", schema.NewGroup("Location",
			schema.NewField("City", "c_City"),
			schema.NewField("State", "c_State"))),
	)
	nr := nodeReport(t, res, "c_City", "c_State")
	if nr.Assigned != "Location" {
		t.Errorf("assigned = %q, want Location", nr.Assigned)
	}
	if nr.Rule != 2 {
		t.Errorf("rule = %d, want LI2", nr.Rule)
	}
	if res.Counters.LI[2] == 0 {
		t.Error("LI2 must be counted in the aggregated result")
	}
}

// TestPipelineLI3 — a generic question is a hypernym of one specific label
// and its coverage extends down that single hierarchy edge to the whole
// node. The unlabeled group of i1 supplies the structural unit without
// contributing a competing potential label.
func TestPipelineLI3(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("",
				schema.NewField("Meal", "c_Meal"),
				schema.NewField("Carrier", "c_Carrier")),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2", schema.NewGroup("Do you have any preferences?",
			schema.NewField("Meal", "c_Meal"))),
		schema.NewTree("i3", schema.NewGroup("Airline Preferences",
			schema.NewField("Carrier", "c_Carrier"))),
	)
	nr := nodeReport(t, res, "c_Meal", "c_Carrier")
	if nr.Assigned != "Do you have any preferences?" {
		t.Errorf("assigned = %q, want the generic question", nr.Assigned)
	}
	if nr.Rule != 3 {
		t.Errorf("rule = %d, want LI3", nr.Rule)
	}
	if res.Counters.LI[3] == 0 {
		t.Error("LI3 must be counted in the aggregated result")
	}
	if res.Counters.LI[4] != 0 {
		t.Error("a single contributing hyponym must not count as LI4")
	}
}

// TestPipelineLI4 — the same extension pooling several hyponym hierarchies
// (two specific preference labels) is LI4, not LI3.
func TestPipelineLI4(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("",
				schema.NewField("Meal", "c_Meal"),
				schema.NewField("Carrier", "c_Carrier"),
				schema.NewField("Service Level", "c_Service")),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2", schema.NewGroup("Do you have any preferences?",
			schema.NewField("Meal", "c_Meal"))),
		schema.NewTree("i3", schema.NewGroup("Airline Preferences",
			schema.NewField("Carrier", "c_Carrier"))),
		schema.NewTree("i4", schema.NewGroup("Service Preferences",
			schema.NewField("Service Level", "c_Service"))),
	)
	nr := nodeReport(t, res, "c_Meal", "c_Carrier", "c_Service")
	if nr.Assigned != "Do you have any preferences?" {
		t.Errorf("assigned = %q, want the generic question", nr.Assigned)
	}
	if nr.Rule != 4 {
		t.Errorf("rule = %d, want LI4", nr.Rule)
	}
	if res.Counters.LI[4] == 0 {
		t.Error("LI4 must be counted in the aggregated result")
	}
}

// TestPipelineLI5 — Figure 8 (right): Car Information covers {Make, Model,
// From, To} but not Keywords; the source node Make/Model over {Make,
// Model, Keywords} shows Keywords is characterized by {Make, Model},
// extending Car Information's meaning over the whole node.
func TestPipelineLI5(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("Car Information",
				schema.NewField("Make", "c_Make"),
				schema.NewField("Model", "c_Model"),
				schema.NewField("From", "c_From"),
				schema.NewField("To", "c_To")),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2", schema.NewGroup("Make/Model",
			schema.NewField("Brand", "c_Make"),
			schema.NewField("Model", "c_Model"),
			schema.NewField("Keywords", "c_Keyword"))),
		schema.NewTree("i3", schema.NewGroup("",
			schema.NewField("Make", "c_Make"),
			schema.NewField("Model", "c_Model"),
			schema.NewField("From", "c_From"),
			schema.NewField("To", "c_To"),
			schema.NewField("Keywords", "c_Keyword"))),
	)
	nr := nodeReport(t, res, "c_Make", "c_Model", "c_From", "c_To", "c_Keyword")
	if nr.Assigned != "Car Information" {
		t.Errorf("assigned = %q, want Car Information", nr.Assigned)
	}
	if nr.Rule != 5 {
		t.Errorf("rule = %d, want LI5", nr.Rule)
	}
	if res.Counters.LI[5] == 0 {
		t.Error("LI5 must be counted in the aggregated result")
	}
}

// TestPipelineLI6 — §6.1.1: the cluster {Class, Flight Class} is an
// isolated leaf (the only leaf child of the Itinerary node); Class is the
// hierarchy root but its instance domain is bounded by Flight Class's, so
// LI6 elects the more descriptive hyponym and the label reaches the leaf.
func TestPipelineLI6(t *testing.T) {
	_, res := pipeline(t, Options{},
		schema.NewTree("i1",
			schema.NewGroup("Itinerary",
				schema.NewField("Class", "c_Class", "economy", "business", "first"),
				schema.NewGroup("Dates",
					schema.NewField("Depart", "c_Depart"),
					schema.NewField("Return", "c_Return"))),
			schema.NewField("Price", "c_Price")),
		schema.NewTree("i2",
			schema.NewGroup("Itinerary",
				schema.NewField("Flight Class", "c_Class", "economy", "business", "first"),
				schema.NewGroup("Dates",
					schema.NewField("Depart", "c_Depart"),
					schema.NewField("Return", "c_Return"))),
			schema.NewField("Price", "c_Price")),
	)
	if got := leafLabel(t, res, "c_Class"); got != "Flight Class" {
		t.Errorf("isolated leaf label = %q, want Flight Class", got)
	}
	if res.Counters.LI[6] == 0 {
		t.Error("LI6 must be counted in the aggregated result")
	}
}

// TestPipelineLI7 — §6.1.2: Hardcover labels a field but also occurs among
// the instances of the sibling member Format in the same cluster, so it is
// a data value; the group solver discards it and Format names the leaf.
func TestPipelineLI7(t *testing.T) {
	bookTrees := func() []*schema.Tree {
		return []*schema.Tree{
			schema.NewTree("i1", schema.NewGroup("Book",
				schema.NewField("Format", "c_Format", "Hardcover", "Paperback"),
				schema.NewField("Title", "c_Title"))),
			schema.NewTree("i2", schema.NewGroup("Book",
				schema.NewField("Hardcover", "c_Format", "Hardcover", "Paperback"),
				schema.NewField("Title", "c_Title"))),
		}
	}
	_, res := pipeline(t, Options{}, bookTrees()...)
	if got := leafLabel(t, res, "c_Format"); got != "Format" {
		t.Errorf("leaf label = %q, want Format after LI7 discards the value label", got)
	}
	if res.Counters.LI[7] == 0 {
		t.Error("LI7 must be counted in the aggregated result")
	}
	// LI7 is an instance rule: with instances disabled it must not fire.
	_, res2 := pipeline(t, Options{DisableInstances: true}, bookTrees()...)
	if res2.Counters.LI[7] != 0 {
		t.Error("LI7 must not fire with instances disabled")
	}
}
