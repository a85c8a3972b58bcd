package baseline

import (
	"context"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

func clusterOf(labels ...string) *cluster.Cluster {
	c := &cluster.Cluster{Name: "c"}
	for i, l := range labels {
		c.Members = append(c.Members, cluster.Member{
			Interface: string(rune('a' + i)),
			Leaf:      schema.NewField(l, "c"),
		})
	}
	return c
}

// TestLabelPicksMostGeneral reproduces the §3.2.1 criticism: given
// {Category, Job Category, Area of Work, Function}, the baseline elects a
// most-general root (Category or Function), not the descriptive Job
// Category the paper prefers.
func TestLabelPicksMostGeneral(t *testing.T) {
	sem := naming.NewSemantics(nil)
	c := clusterOf("Category", "Job Category", "Area of Work", "Function", "Category")
	got := Label(sem, c)
	if got != "Category" && got != "Function" {
		t.Errorf("baseline elected %q, want a most-general root (Category/Function)", got)
	}
	if got == "Job Category" {
		t.Error("the baseline must not pick the descriptive label")
	}
}

func TestLabelMajorityRule(t *testing.T) {
	sem := naming.NewSemantics(nil)
	// Two unrelated roots: the more frequent one wins.
	c := clusterOf("Garage", "Basement", "Garage")
	if got := Label(sem, c); got != "Garage" {
		t.Errorf("majority rule failed: got %q", got)
	}
	if got := Label(sem, clusterOf()); got != "" {
		t.Errorf("empty cluster: got %q", got)
	}
}

// TestCompareOnJobDomain: on the Job corpus the paper's labeler must be at
// least as descriptive as the baseline and never the more generic side.
func TestCompareOnJobDomain(t *testing.T) {
	d, err := dataset.ByName("Job")
	if err != nil {
		t.Fatal(err)
	}
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	tab := cluster.NewTable(trees)
	m, err := tab.DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	mr, err := merge.MergeTable(context.Background(), tab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := naming.RunTable(context.Background(), mr, tab, naming.Options{}); err != nil {
		t.Fatal(err)
	}
	paper := make(map[string]string)
	for _, c := range m.Clusters {
		if leaf := mr.LeafOf[c.Name]; leaf != nil {
			paper[c.Name] = leaf.Label
		}
	}
	sem := naming.NewSemantics(nil)
	base := Run(sem, m)
	cmp := Compare(sem, m, mr.Groups, paper, base)
	if cmp.Clusters == 0 {
		t.Fatal("nothing compared")
	}
	if cmp.PaperWords < cmp.BaselineWords {
		t.Errorf("paper labeler avg %.2f words vs baseline %.2f: descriptiveness lost",
			cmp.PaperWords, cmp.BaselineWords)
	}
}

func TestGroupVectorConsistent(t *testing.T) {
	sem := naming.NewSemantics(nil)
	// One interface supplies (Minimum, Maximum); labels taken from it are
	// consistent; labels mixing interfaces that never co-label are not.
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewField("Minimum", "c_Min"),
			schema.NewField("Maximum", "c_Max"),
		),
		schema.NewTree("s2",
			schema.NewField("From", "c_Min"),
		),
		schema.NewTree("s3",
			schema.NewField("To", "c_Max"),
		),
	}
	m, err := cluster.NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	g := []*cluster.Cluster{m.Get("c_Min"), m.Get("c_Max")}
	if !groupVectorConsistent(sem, g, map[string]string{"c_Min": "Minimum", "c_Max": "Maximum"}) {
		t.Error("(Minimum, Maximum) comes from one interface: consistent")
	}
	if groupVectorConsistent(sem, g, map[string]string{"c_Min": "From", "c_Max": "To"}) {
		t.Error("(From, To) mixes interfaces that never co-label: inconsistent")
	}
	if groupVectorConsistent(sem, g, map[string]string{"c_Min": "", "c_Max": "To"}) {
		t.Error("an unlabeled position cannot be consistent")
	}
}
