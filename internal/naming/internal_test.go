package naming

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func mappingFor(trees ...*schema.Tree) *cluster.Mapping {
	return tableFor(trees...).Mapping
}

// tableFor lays annotated trees out as a table numbered by their mapping.
func tableFor(trees ...*schema.Tree) *cluster.Table {
	tab := cluster.NewTable(trees)
	if _, err := tab.DeriveMapping(); err != nil {
		panic(err)
	}
	return tab
}

// deriveBoth runs the §5 candidate derivation for X through both kernels —
// the map-based reference (candidateLabels) and the indexed one
// (candidateLabelsIndexed), each on its own Semantics — and fails the test
// unless they agree on the candidates (label, origins, rule, alternates),
// the potential count and the rule tallies. It returns the reference
// outcome and adds its tallies to opts.Counters.
func deriveBoth(t *testing.T, trees []*schema.Tree, x map[string]bool, opts SolverOptions) ([]CandidateLabel, int) {
	t.Helper()
	tab := tableFor(trees...)
	var refCnt, ixCnt Counters
	refOpts, ixOpts := opts, opts
	refOpts.Counters, ixOpts.Counters = &refCnt, &ixCnt
	ref, refPots := NewSemantics(nil).candidateLabels(x, newRunIndex(tab, nil).refUnits(), tab.Mapping, refOpts)

	s := NewSemantics(nil)
	ix := newRunIndex(tab, s)
	var xs []int32
	for c := range x {
		id := slices.Index(tab.Names, c)
		if id < 0 {
			t.Fatalf("X names %s, which no source has", c)
		}
		xs = append(xs, int32(id))
	}
	slices.Sort(xs)
	got, gotPots := s.candidateLabelsIndexed(ix, newNodeScratch(len(tab.Names)), xs, ixOpts)
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("indexed candidates diverge from the reference:\nindexed:   %+v\nreference: %+v", got, ref)
	}
	if gotPots != refPots {
		t.Errorf("indexed potential count %d, reference %d", gotPots, refPots)
	}
	if ixCnt != refCnt {
		t.Errorf("indexed rule tallies %v, reference %v", ixCnt.LI, refCnt.LI)
	}
	if opts.Counters != nil {
		opts.Counters.Merge(refCnt)
	}
	return ref, refPots
}

// TestCandidateLabelsLI2 reproduces Figure 8 (left): the label Location
// appears in multiple interfaces covering different parts of an address;
// the union of the covered sets equals X, so Location is a candidate.
func TestCandidateLabelsLI2(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Location",
			schema.NewField("City", "c_City"),
			schema.NewField("State", "c_State"))),
		schema.NewTree("i2", schema.NewGroup("Location",
			schema.NewField("State", "c_State"),
			schema.NewField("Zip Code", "c_Zip"))),
		schema.NewTree("i3", schema.NewGroup("Location",
			schema.NewField("County", "c_County"))),
	}
	x := setOf("c_City", "c_State", "c_Zip", "c_County")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	if len(cands) != 1 || cands[0].Label != "Location" {
		t.Fatalf("candidates = %+v, want [Location]", cands)
	}
	if cands[0].Rule != 2 {
		t.Errorf("rule = %d, want LI2", cands[0].Rule)
	}
	if len(cands[0].Origins) != 3 {
		t.Errorf("origins = %v, want all three interfaces", cands[0].Origins)
	}
	if counters.LI[2] == 0 {
		t.Error("LI2 firing must be counted")
	}
}

// TestCandidateLabelsLI3LI4 reproduces Figure 8 (middle): the generic
// question "Do you have any preferences?" is a hypernym of both specific
// preference labels and semantically covers their union.
func TestCandidateLabelsLI3LI4(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Do you have any preferences?",
			schema.NewField("Meal", "c_Meal"))),
		schema.NewTree("i2", schema.NewGroup("Airline Preferences",
			schema.NewField("Carrier", "c_Carrier"))),
		schema.NewTree("i3", schema.NewGroup("What are your service preferences?",
			schema.NewField("Service Level", "c_Service"))),
	}
	x := setOf("c_Meal", "c_Carrier", "c_Service")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	var got *CandidateLabel
	for i := range cands {
		if cands[i].Label == "Do you have any preferences?" {
			got = &cands[i]
		}
	}
	if got == nil {
		t.Fatalf("generic question missing from candidates: %+v", cands)
	}
	if got.Rule != 3 && got.Rule != 4 {
		t.Errorf("rule = %d, want LI3/LI4", got.Rule)
	}
	if counters.LI[3]+counters.LI[4] == 0 {
		t.Error("LI3/LI4 firing must be counted")
	}
}

// TestCandidateLabelsLI1 reproduces the Location / Property Location
// equivalence: Location (hypernym) covers a subset of Property Location's
// leaves, so the two labels are semantically equivalent in the domain and
// their coverages merge.
func TestCandidateLabelsLI1(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Location",
			schema.NewField("State", "c_State"),
			schema.NewField("County", "c_County"))),
		schema.NewTree("i2", schema.NewGroup("Property Location",
			schema.NewField("State", "c_State"),
			schema.NewField("County", "c_County"),
			schema.NewField("City", "c_City"))),
	}
	x := setOf("c_State", "c_County", "c_City")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	if len(cands) != 1 {
		t.Fatalf("candidates = %+v, want one merged label", cands)
	}
	// The merged potential keeps the more descriptive display form.
	if cands[0].Label != "Property Location" {
		t.Errorf("label = %q, want Property Location", cands[0].Label)
	}
	if counters.LI[1] == 0 {
		t.Error("LI1 firing must be counted")
	}
	if len(cands[0].Origins) != 2 {
		t.Errorf("origins = %v, want both interfaces", cands[0].Origins)
	}
}

// TestCandidateLabelsLI5 reproduces Figure 8 (right): Car Information
// covers {Make, Model, From, To} but not Keywords; the source node labeled
// Make/Model over {Make, Model, Keywords} shows Keywords is characterized
// by {Make, Model}, extending Car Information over the whole set.
func TestCandidateLabelsLI5(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Car Information",
			schema.NewField("Make", "c_Make"),
			schema.NewField("Model", "c_Model"),
			schema.NewField("From", "c_From"),
			schema.NewField("To", "c_To"))),
		schema.NewTree("i2", schema.NewGroup("Make/Model",
			schema.NewField("Brand", "c_Make"),
			schema.NewField("Model", "c_Model"),
			schema.NewField("Keywords", "c_Keyword"))),
	}
	x := setOf("c_Make", "c_Model", "c_From", "c_To", "c_Keyword")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	var got *CandidateLabel
	for i := range cands {
		if cands[i].Label == "Car Information" {
			got = &cands[i]
		}
	}
	if got == nil {
		t.Fatalf("Car Information missing: %+v", cands)
	}
	if got.Rule != 5 {
		t.Errorf("rule = %d, want LI5", got.Rule)
	}
	if counters.LI[5] == 0 {
		t.Error("LI5 firing must be counted")
	}
}

// TestCandidateLabelsLI5PeerLabel: a source node whose label is as much
// about Z as about W ("Drop-off" over Drop-off City/Date/Time) groups
// peers; it does not let Trip, which covers only City and Date, extend
// its meaning over Drop-off Time.
func TestCandidateLabelsLI5PeerLabel(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Trip",
			schema.NewField("Drop-off City", "c_City"),
			schema.NewField("Drop-off Date", "c_Date"))),
		schema.NewTree("i2", schema.NewGroup("Drop-off",
			schema.NewField("Drop-off City", "c_City"),
			schema.NewField("Drop-off Date", "c_Date"),
			schema.NewField("Drop-off Time", "c_Time"))),
	}
	x := setOf("c_City", "c_Date", "c_Time")
	var counters Counters
	cands, pots := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	if pots != 2 {
		t.Fatalf("%d potentials, want Trip and Drop-off", pots)
	}
	if len(cands) != 1 || cands[0].Label != "Drop-off" || cands[0].Rule != 2 {
		t.Errorf("candidates = %+v, want only Drop-off by LI2", cands)
	}
	if counters.LI[5] != 0 {
		t.Errorf("LI5 fired %d times, want none", counters.LI[5])
	}
}

// TestCandidateLabelsLI5Instances checks LI5's first condition: the
// instances of Z are a subset of the instances of the covered fields.
func TestCandidateLabelsLI5Instances(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Vehicle",
			schema.NewField("Body Style", "c_Body", "sedan", "coupe", "convertible"))),
		schema.NewTree("i2",
			schema.NewField("Body", "c_Body", "sedan", "coupe", "convertible", "van"),
			schema.NewField("Style", "c_Style", "sedan", "coupe")),
	}
	x := setOf("c_Body", "c_Style")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x,
		SolverOptions{UseInstances: true, Counters: &counters})
	var got *CandidateLabel
	for i := range cands {
		if cands[i].Label == "Vehicle" {
			got = &cands[i]
		}
	}
	if got == nil {
		t.Fatalf("Vehicle missing: %+v", cands)
	}
	if got.Rule != 5 {
		t.Errorf("rule = %d, want LI5 via instance containment", got.Rule)
	}
	// Without instances the extension must fail.
	cands, _ = deriveBoth(t, trees, x, SolverOptions{UseInstances: false})
	for _, c := range cands {
		if c.Label == "Vehicle" {
			t.Error("LI5 instance condition must be off without instances")
		}
	}
}

// TestCandidateLabelsCombination reproduces Figure 7: LI2 enlarges
// Location's coverage over the address fields, and LI3 (Location hypernym
// of Area) extends it over Locate within; together they make Location a
// candidate for the full set.
func TestCandidateLabelsCombination(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Location",
			schema.NewField("City", "c_City"),
			schema.NewField("State", "c_State"))),
		schema.NewTree("i2", schema.NewGroup("Location",
			schema.NewField("State", "c_State"),
			schema.NewField("Zip Code", "c_Zip"))),
		schema.NewTree("i3", schema.NewGroup("Area",
			schema.NewField("Locate within", "c_Within"),
			schema.NewField("Zip", "c_Zip"))),
	}
	x := setOf("c_City", "c_State", "c_Zip", "c_Within")
	var counters Counters
	cands, _ := deriveBoth(t, trees, x, SolverOptions{Counters: &counters})
	var got *CandidateLabel
	for i := range cands {
		if cands[i].Label == "Location" {
			got = &cands[i]
		}
	}
	if got == nil {
		t.Fatalf("Location missing: %+v", cands)
	}
	if got.Rule != 3 && got.Rule != 4 {
		t.Errorf("rule = %d, want hypernymy extension", got.Rule)
	}
}

// TestCandidateLabelsNone: when no source label covers X and no inference
// applies, the candidate set is empty ("a good chance a label does not
// exist").
func TestCandidateLabelsNone(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Departure",
			schema.NewField("From", "c_From"))),
		schema.NewTree("i2", schema.NewGroup("Passengers",
			schema.NewField("Adults", "c_Adult"))),
	}
	x := setOf("c_From", "c_Adult")
	cands, _ := deriveBoth(t, trees, x, SolverOptions{})
	if len(cands) != 0 {
		t.Errorf("candidates = %+v, want none", cands)
	}
}

// TestCandidateLabelsStraddlingUnit: a source node whose clusters straddle
// X — two inside, one outside — is not a potential label of X. Seventy
// filler clusters number the outside cluster past the first bitset word
// of the run's numbering, so the indexed ⊆ test must reject the unit on a
// cluster far from X's.
func TestCandidateLabelsStraddlingUnit(t *testing.T) {
	fillers := make([]*schema.Node, 70)
	for i := range fillers {
		fillers[i] = schema.NewField(fmt.Sprintf("Extra %d", i), fmt.Sprintf("c_Extra%d", i))
	}
	trees := []*schema.Tree{
		schema.NewTree("i1", schema.NewGroup("Location",
			schema.NewField("City", "c_City"),
			schema.NewField("State", "c_State"))),
		schema.NewTree("i2", fillers...),
		schema.NewTree("i3", schema.NewGroup("Delivery",
			schema.NewField("City", "c_City"),
			schema.NewField("State", "c_State"),
			schema.NewField("Zip Code", "c_Zip"))),
	}
	if zip := slices.Index(tableFor(trees...).Names, "c_Zip"); zip < 64 {
		t.Fatalf("c_Zip numbered %d, want it past the first bitset word", zip)
	}

	cands, pots := deriveBoth(t, trees, setOf("c_City", "c_State"), SolverOptions{})
	if pots != 1 || len(cands) != 1 || cands[0].Label != "Location" || cands[0].Rule != 2 {
		t.Errorf("X = {City, State}: %d potentials, candidates %+v; want only Location by LI2", pots, cands)
	}
	// With the outside cluster in X the unit no longer straddles it.
	if _, pots := deriveBoth(t, trees, setOf("c_City", "c_State", "c_Zip"), SolverOptions{}); pots != 2 {
		t.Errorf("X = {City, State, Zip}: %d potentials, want Location and Delivery", pots)
	}
}

// Unlabeled source nodes contribute nothing.
func TestCollectSourceUnitsSkipsUnlabeled(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("i1",
			schema.NewGroup("", schema.NewField("A", "c_A")),
			schema.NewGroup("G", schema.NewField("B", "c_B"))),
	}
	units := newSourceUnits(tableFor(trees...), nil)
	if len(units.list) != 1 || units.list[0].label != "G" {
		t.Errorf("units = %+v, want only the labeled node", units.list)
	}
}
