package translate

import (
	"context"
	"reflect"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/merge"
	"qilabel/internal/schema"
)

// integrated merges source trees as the pipeline does: 1:m expansion,
// their table and its derived mapping, then merge.MergeTable.
func integrated(t *testing.T, trees []*schema.Tree) *merge.Result {
	t.Helper()
	cluster.ExpandOneToMany(trees)
	tab := cluster.NewTable(trees)
	if _, err := tab.DeriveMapping(); err != nil {
		t.Fatal(err)
	}
	mr, err := merge.MergeTable(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	return mr
}

// translate runs q through the index of the merge result's sources.
func translate(mr *merge.Result, q Query) []SubQuery {
	return indexOf(mr.Sources).Translate(q)
}

func airlineSources() []*schema.Tree {
	return []*schema.Tree{
		schema.NewTree("aa",
			schema.NewField("Adults", "c_Adult"),
			schema.NewField("Children", "c_Child"),
			schema.NewField("Class", "c_Class", "Economy", "Business", "First"),
		),
		schema.NewTree("vacations",
			schema.NewMultiField("Passengers", "c_Senior", "c_Adult", "c_Child"),
			schema.NewField("Cabin", "c_Class"),
		),
		schema.NewTree("promoonly",
			schema.NewField("Promo", "c_Promo"),
		),
	}
}

func TestTranslateDirectAndUnsupported(t *testing.T) {
	mr := integrated(t, airlineSources())
	q := Query{"c_Adult": "2", "c_Child": "1", "c_Senior": "1", "c_Class": "economy"}
	subs := translate(mr, q)
	if len(subs) != 3 {
		t.Fatalf("got %d subqueries, want 3", len(subs))
	}
	bySrc := map[string]SubQuery{}
	for _, s := range subs {
		bySrc[s.Interface] = s
	}

	aa := bySrc["aa"]
	if len(aa.Assignments) != 3 {
		t.Fatalf("aa assignments = %+v", aa.Assignments)
	}
	if !reflect.DeepEqual(aa.Unsupported, []string{"c_Senior"}) {
		t.Errorf("aa unsupported = %v, want [c_Senior]", aa.Unsupported)
	}
	// Instance coercion: "economy" snaps to the source's "Economy".
	var classA Assignment
	for _, a := range aa.Assignments {
		if a.Label == "Class" {
			classA = a
		}
	}
	if classA.Value != "Economy" || classA.Approximate {
		t.Errorf("class assignment = %+v, want exact Economy", classA)
	}
	if got := aa.Covered(q); got != 0.75 {
		t.Errorf("aa coverage = %v, want 0.75", got)
	}

	promo := bySrc["promoonly"]
	if len(promo.Assignments) != 0 || len(promo.Unsupported) != 4 {
		t.Errorf("promoonly = %+v", promo)
	}
}

func TestTranslateAggregatesOneToMany(t *testing.T) {
	mr := integrated(t, airlineSources())
	q := Query{"c_Adult": "2", "c_Child": "1", "c_Senior": "1"}
	var vac SubQuery
	for _, s := range translate(mr, q) {
		if s.Interface == "vacations" {
			vac = s
		}
	}
	if len(vac.Assignments) != 1 {
		t.Fatalf("vacations assignments = %+v", vac.Assignments)
	}
	a := vac.Assignments[0]
	if a.Label != "Passengers" || a.Value != "4" {
		t.Errorf("aggregate = %+v, want Passengers=4", a)
	}
	if len(a.Clusters) != 3 {
		t.Errorf("aggregate covers %v", a.Clusters)
	}
	if len(vac.Unsupported) != 0 {
		t.Errorf("vacations unsupported = %v", vac.Unsupported)
	}
}

func TestTranslateAggregateNonNumeric(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewField("First Name", "c_First"),
			schema.NewField("Last Name", "c_Last"),
		),
		schema.NewTree("s2",
			schema.NewMultiField("Full Name", "c_First", "c_Last"),
		),
	}
	mr := integrated(t, trees)
	q := Query{"c_First": "Ada", "c_Last": "Lovelace"}
	for _, s := range translate(mr, q) {
		if s.Interface == "s2" {
			if len(s.Assignments) != 1 || s.Assignments[0].Value != "Ada, Lovelace" {
				t.Errorf("s2 = %+v", s.Assignments)
			}
		}
	}
}

func TestTranslatePartialAggregate(t *testing.T) {
	mr := integrated(t, airlineSources())
	// Only adults queried: the aggregate still fires with the one part.
	q := Query{"c_Adult": "2"}
	for _, s := range translate(mr, q) {
		if s.Interface == "vacations" {
			if len(s.Assignments) != 1 || s.Assignments[0].Value != "2" {
				t.Errorf("vacations = %+v", s.Assignments)
			}
			if len(s.Unsupported) != 0 {
				t.Errorf("unsupported = %v", s.Unsupported)
			}
		}
	}
}

func TestCoerceApproximate(t *testing.T) {
	ix := indexOf([]*schema.Tree{schema.NewTree("s",
		schema.NewField("Class", "c_Class", "Economy Class", "Business Class"))})
	coerce := func(value string) Assignment {
		return ix.Translate(Query{"c_Class": value})[0].Assignments[0]
	}
	a := coerce("business")
	if a.Value != "Business Class" || !a.Approximate {
		t.Errorf("coerce = %+v, want approximate Business Class", a)
	}
	b := coerce("zeppelin")
	if !b.Approximate || b.Value != "zeppelin" {
		t.Errorf("coerce unknown = %+v", b)
	}
}

func TestTranslateEmptyQuery(t *testing.T) {
	mr := integrated(t, airlineSources())
	for _, s := range translate(mr, Query{}) {
		if len(s.Assignments) != 0 || len(s.Unsupported) != 0 {
			t.Errorf("%s: %+v", s.Interface, s)
		}
		if s.Covered(Query{}) != 1 {
			t.Error("empty query is fully covered")
		}
	}
}
