package naming

import (
	"reflect"
	"sort"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

// table2Relation builds the group relation of Table 2: the airline group
// [c_Senior, c_Adult, c_Child, c_Infant] over six interfaces.
func table2Relation() *cluster.Relation {
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
	return relationFromRows([]string{"c_Senior", "c_Adult", "c_Child", "c_Infant"},
		func() (out [][2]interface{}) {
			for _, r := range rows {
				out = append(out, [2]interface{}{r.iface, []string{r.senior, r.adult, r.child, r.infant}})
			}
			return
		}())
}

// relationFromRows assembles a relation (and backing clusters/trees) from
// label rows.
func relationFromRows(clusterNames []string, rows [][2]interface{}) *cluster.Relation {
	var trees []*schema.Tree
	for _, row := range rows {
		iface := row[0].(string)
		labels := row[1].([]string)
		var kids []*schema.Node
		for i, l := range labels {
			if l != "" {
				kids = append(kids, schema.NewField(l, clusterNames[i]))
			}
		}
		trees = append(trees, schema.NewTree(iface, kids...))
	}
	m := mappingFor(trees...)
	var group []*cluster.Cluster
	for _, n := range clusterNames {
		c := m.Get(n)
		if c == nil {
			c = &cluster.Cluster{Name: n}
		}
		group = append(group, c)
	}
	return cluster.NewRelations(cluster.Interfaces(trees)).Build(group)
}

// --- Definition 2 / partitioning ------------------------------------------

// TestPartitionsFigure4 reproduces Example 1 / Figure 4: at string level,
// Table 2's tuples partition into {aa, british, economytravel, vacations}
// and {airfareplanet, airtravel}; only the former covers all clusters.
func TestPartitionsFigure4(t *testing.T) {
	s := NewSemantics(nil)
	rel := table2Relation()
	parts := s.Partitions(rel, LevelString)
	if len(parts) != 2 {
		t.Fatalf("got %d partitions, want 2", len(parts))
	}
	var byLen map[int][]string // size -> interfaces
	byLen = map[int][]string{}
	for _, p := range parts {
		var ifaces []string
		for _, tp := range p.Tuples {
			ifaces = append(ifaces, tp.Interface)
		}
		sort.Strings(ifaces)
		byLen[len(ifaces)] = ifaces
	}
	if !reflect.DeepEqual(byLen[4], []string{"aa", "british", "economytravel", "vacations"}) {
		t.Errorf("big partition = %v", byLen[4])
	}
	if !reflect.DeepEqual(byLen[2], []string{"airfareplanet", "airtravel"}) {
		t.Errorf("small partition = %v", byLen[2])
	}
	covering := CoveringPartitions(parts)
	if len(covering) != 1 || len(covering[0].Tuples) != 4 {
		t.Fatalf("covering partitions = %d, want exactly the 4-tuple one", len(covering))
	}
	if covering[0].CoveredCount() != 4 {
		t.Errorf("covering partition covers %d clusters, want 4", covering[0].CoveredCount())
	}
	// The small partition misses c_Senior.
	for _, p := range parts {
		if len(p.Tuples) == 2 && p.Covered[0] {
			t.Error("the {airfareplanet, airtravel} partition must not cover c_Senior")
		}
	}
}

func TestTuplesConsistentLevels(t *testing.T) {
	s := NewSemantics(nil)
	mk := func(labels ...string) cluster.Tuple { return cluster.Tuple{Labels: labels} }
	// Table 4: (null, Class of Ticket, Preferred Airline) and
	// (Max. Number of Stops, null, Airline Preference) are equality-level
	// consistent via c_Airline.
	a := mk("", "Class of Ticket", "Preferred Airline")
	b := mk("Max. Number of Stops", "", "Airline Preference")
	if s.TuplesConsistent(a, b, LevelString) {
		t.Error("not string-level consistent")
	}
	if !s.TuplesConsistent(a, b, LevelEquality) {
		t.Error("should be equality-level consistent (Preferred Airline ~ Airline Preference)")
	}
	if !s.TuplesConsistent(a, b, LevelSynonymy) {
		t.Error("levels are cumulative")
	}
	// Synonymy level via Area of Study / Field of Work.
	c := mk("Area of Study", "X")
	d := mk("Field of Work", "Y")
	if s.TuplesConsistent(c, d, LevelEquality) {
		t.Error("synonyms are not equality-level consistent")
	}
	if !s.TuplesConsistent(c, d, LevelSynonymy) {
		t.Error("should be synonymy-level consistent")
	}
	// Null overlap only: never consistent.
	e := mk("", "X")
	f := mk("Z", "")
	if s.TuplesConsistent(e, f, LevelSynonymy) {
		t.Error("tuples with no shared labeled cluster are not consistent")
	}
}

func TestCombine(t *testing.T) {
	r := cluster.Tuple{Interface: "british",
		Labels:    []string{"Seniors", "Adults", "Children", ""},
		Instances: [][]string{nil, {"1", "2"}, nil, nil}}
	s := cluster.Tuple{Interface: "economytravel",
		Labels:    []string{"", "Adults", "Children", "Infants"},
		Instances: [][]string{nil, nil, nil, {"0", "1"}}}
	c := Combine(r, s)
	want := []string{"Seniors", "Adults", "Children", "Infants"}
	if !reflect.DeepEqual(c.Labels, want) {
		t.Errorf("Combine labels = %v, want %v", c.Labels, want)
	}
	if !reflect.DeepEqual(c.Instances[1], []string{"1", "2"}) {
		t.Error("r's instances must win for r's non-null components")
	}
	if !reflect.DeepEqual(c.Instances[3], []string{"0", "1"}) {
		t.Error("s's instances must fill r's nulls")
	}
}

func TestCombineClosureProducesFullTuple(t *testing.T) {
	s := NewSemantics(nil)
	rel := table2Relation()
	parts := s.Partitions(rel, LevelString)
	covering := CoveringPartitions(parts)[0]
	closure := s.CombineClosure(covering.Tuples, LevelString)
	found := false
	for _, tp := range closure {
		if reflect.DeepEqual(tp.Labels, []string{"Seniors", "Adults", "Children", "Infants"}) {
			found = true
		}
	}
	if !found {
		t.Error("Combine* must generate (Seniors, Adults, Children, Infants)")
	}
}

func TestExpressiveness(t *testing.T) {
	s := NewSemantics(nil)
	// §4.2.1's example: 7 distinct content words vs 6.
	a := cluster.Tuple{Labels: []string{"Max. Number of Stops", "Class of Ticket", "Preferred Airline"}}
	b := cluster.Tuple{Labels: []string{"Number of Connections", "Class of Ticket", "Airline Preference"}}
	ea, eb := s.Expressiveness(a), s.Expressiveness(b)
	if ea != 7 {
		t.Errorf("Expressiveness(a) = %d, want 7", ea)
	}
	if eb != 6 {
		t.Errorf("Expressiveness(b) = %d, want 6", eb)
	}
	if ea <= eb {
		t.Error("the paper prefers the first tuple-solution")
	}
}

// --- Group solving ----------------------------------------------------------

// TestSolveGroupTable2 reproduces the paper's intersect-and-union result:
// the solution (Seniors, Adults, Children, Infants) at string level.
func TestSolveGroupTable2(t *testing.T) {
	s := NewSemantics(nil)
	out := s.SolveGroup(table2Relation(), SolverOptions{})
	if !out.Consistent || out.Level != LevelString {
		t.Fatalf("consistent=%v level=%v, want consistent at string level", out.Consistent, out.Level)
	}
	best := out.Best()
	want := []string{"Seniors", "Adults", "Children", "Infants"}
	if !reflect.DeepEqual(best.Labels, want) {
		t.Errorf("solution = %v, want %v", best.Labels, want)
	}
	if best.Partition == nil || len(best.Partition.Tuples) != 4 {
		t.Error("solution must carry its supplying partition")
	}
}

// TestSolveGroupTable3 reproduces the partially consistent case: the auto
// group [c_State, c_City, c_ZipCode, c_Distance] where no row links
// {State, City} with {Zip, Distance}.
func TestSolveGroupTable3(t *testing.T) {
	s := NewSemantics(nil)
	rel := relationFromRows(
		[]string{"c_State", "c_City", "c_ZipCode", "c_Distance"},
		[][2]interface{}{
			{"100auto", []string{"State", "City", "", ""}},
			{"ads4autos", []string{"", "", "Zip Code", "Distance"}},
			{"carmarket", []string{"State", "City", "", ""}},
			{"cars1", []string{"", "", "Your Zip", "Within"}},
		})
	out := s.SolveGroup(rel, SolverOptions{})
	if out.Consistent {
		t.Fatal("no row links the two halves: must be partially consistent")
	}
	best := out.Best()
	if best == nil || best.Consistent || best.Partition != nil {
		t.Fatal("partially consistent solution must have no partition")
	}
	// Each half must be internally consistent; the concatenation labels all
	// four clusters.
	for i, l := range best.Labels {
		if l == "" {
			t.Errorf("cluster %d unlabeled in partially consistent solution %v", i, best.Labels)
		}
	}
	if best.Labels[0] != "State" || best.Labels[1] != "City" {
		t.Errorf("first half = %v, want State/City", best.Labels[:2])
	}
	if (best.Labels[2] != "Zip Code" && best.Labels[2] != "Your Zip") ||
		(best.Labels[3] != "Distance" && best.Labels[3] != "Within") {
		t.Errorf("second half = %v, want a consistent zip/distance pair", best.Labels[2:])
	}
	// The halves must come from the same source row pair (internal
	// consistency of the concatenated halves).
	if best.Labels[2] == "Zip Code" && best.Labels[3] != "Distance" {
		t.Errorf("mixed halves: %v", best.Labels[2:])
	}
}

// TestSolveGroupTable4 needs the equality level: Preferred Airline ~
// Airline Preference links the alldest and cheap rows.
func TestSolveGroupTable4(t *testing.T) {
	s := NewSemantics(nil)
	rel := relationFromRows(
		[]string{"c_NumConnections", "c_TicketClass", "c_Airline"},
		[][2]interface{}{
			{"aa", []string{"NonStop", "", "Choose an Airline"}},
			{"airfare", []string{"Number of Connections", "", "Airline Preference"}},
			{"alldest", []string{"", "Class of Ticket", "Preferred Airline"}},
			{"cheap", []string{"Max. Number of Stops", "", "Airline Preference"}},
			{"msn", []string{"", "Class", "Airline"}},
		})
	out := s.SolveGroup(rel, SolverOptions{})
	if !out.Consistent {
		t.Fatalf("want a consistent solution; got partial %v", out.Best().Labels)
	}
	if out.Level != LevelEquality {
		t.Errorf("level = %v, want equality", out.Level)
	}
	best := out.Best()
	// The most expressive full tuple: (Max. Number of Stops, Class of
	// Ticket, Preferred Airline) or its Airline Preference variant, 7 words.
	if got := s.Expressiveness(cluster.Tuple{Labels: best.Labels}); got < 7 {
		t.Errorf("expressiveness = %d for %v, want >= 7", got, best.Labels)
	}
	if best.Labels[0] != "Max. Number of Stops" {
		t.Errorf("solution = %v, want the Max. Number of Stops variant", best.Labels)
	}
}

// TestResolveHomonyms reproduces §4.2.3's example: (Position Options, Job
// Type, Type of Job, Company Name) has two equivalent labels; the repair
// adopts (Job Type, Employment Type) from a source row.
func TestResolveHomonyms(t *testing.T) {
	s := NewSemantics(nil)
	rel := relationFromRows(
		[]string{"c_Options", "c_JobType", "c_JobPref", "c_Company"},
		[][2]interface{}{
			{"s1", []string{"Position Options", "Job Type", "Type of Job", "Company Name"}},
			{"s2", []string{"", "Job Type", "Employment Type", ""}},
		})
	labels := []string{"Position Options", "Job Type", "Type of Job", "Company Name"}
	if !s.resolveHomonyms(labels, rel) {
		t.Fatal("homonym conflict should be repaired")
	}
	want := []string{"Position Options", "Job Type", "Employment Type", "Company Name"}
	if !reflect.DeepEqual(labels, want) {
		t.Errorf("repaired = %v, want %v", labels, want)
	}
}

func TestSolveGroupAppliesHomonymRepair(t *testing.T) {
	s := NewSemantics(nil)
	rel := relationFromRows(
		[]string{"c_JobType", "c_JobPref"},
		[][2]interface{}{
			{"s1", []string{"Job Type", "Type of Job"}},
			{"s2", []string{"Job Type", "Employment Type"}},
		})
	out := s.SolveGroup(rel, SolverOptions{})
	best := out.Best()
	if s.sameName(best.Labels[0], best.Labels[1]) {
		t.Errorf("solution %v still carries a homonym conflict", best.Labels)
	}
	// The expressiveness criterion already prefers the conflict-free row
	// (Job Type, Employment Type); either way the conflict must be gone.
	if best.Labels[1] != "Employment Type" {
		t.Errorf("solution = %v, want the Employment Type variant", best.Labels)
	}
}

// TestSolveGroupMaxLevelCap checks the ablation knob: capping at string
// level makes Table 4 unsolvable (partially consistent).
func TestSolveGroupMaxLevelCap(t *testing.T) {
	s := NewSemantics(nil)
	rel := relationFromRows(
		[]string{"c_NumConnections", "c_TicketClass", "c_Airline"},
		[][2]interface{}{
			{"alldest", []string{"", "Class of Ticket", "Preferred Airline"}},
			{"cheap", []string{"Max. Number of Stops", "", "Airline Preference"}},
		})
	capped := s.SolveGroup(rel, SolverOptions{MaxLevel: LevelString})
	if capped.Consistent {
		t.Error("string level alone cannot link the rows")
	}
	full := s.SolveGroup(rel, SolverOptions{})
	if !full.Consistent {
		t.Error("equality level should link the rows")
	}
}

// TestDropValueLabelsLI7 checks that a label occurring among another
// member's instances is discarded from the relation.
func TestDropValueLabelsLI7(t *testing.T) {
	s := NewSemantics(nil)
	trees := []*schema.Tree{
		schema.NewTree("b1", schema.NewField("Format", "c_Format", "hardcover", "paperback")),
		schema.NewTree("b2", schema.NewField("hardcover", "c_Format")),
		schema.NewTree("b3", schema.NewField("Binding", "c_Format")),
	}
	m := mappingFor(trees...)
	rel := cluster.NewRelations(cluster.Interfaces(trees)).Build([]*cluster.Cluster{m.Get("c_Format")})
	var counters Counters
	out := s.SolveGroup(rel, SolverOptions{UseInstances: true, Counters: &counters})
	best := out.Best()
	if best.Labels[0] == "hardcover" {
		t.Error("a data value must not be elected as the label")
	}
	if counters.LI[7] == 0 {
		t.Error("LI7 firing should be counted")
	}
	// Without instances the rule must not fire.
	var c2 Counters
	s.SolveGroup(rel, SolverOptions{UseInstances: false, Counters: &c2})
	if c2.LI[7] != 0 {
		t.Error("LI7 must not fire when instances are disabled")
	}
}
