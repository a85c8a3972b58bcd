package match

import (
	"context"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/schema"
)

// assign runs the matcher over the table of trees, as the pipeline does.
func assign(tb testing.TB, trees []*schema.Tree, opts Options) int {
	tb.Helper()
	n, err := AssignTable(context.Background(), cluster.NewTable(trees), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

func TestAssignBasic(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("a",
			schema.NewField("Job Type", ""),
			schema.NewField("City", ""),
		),
		schema.NewTree("b",
			schema.NewField("Type of Job", ""),
			schema.NewField("Town", ""),
		),
		schema.NewTree("c",
			schema.NewField("Salary", ""),
		),
	}
	n := assign(t, trees, Options{})
	if n != 3 {
		t.Fatalf("got %d clusters, want 3 (job type, city, salary)", n)
	}
	jt1 := trees[0].Leaves()[0].Cluster
	jt2 := trees[1].Leaves()[0].Cluster
	if jt1 != jt2 {
		t.Error("Job Type and Type of Job must share a cluster (equality)")
	}
	c1 := trees[0].Leaves()[1].Cluster
	c2 := trees[1].Leaves()[1].Cluster
	if c1 != c2 {
		t.Error("City and Town must share a cluster (synonymy)")
	}
	if trees[2].Leaves()[0].Cluster == jt1 {
		t.Error("Salary must not join the job-type cluster")
	}
}

func TestAssignInstanceSignal(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("a", schema.NewField("", "", "Economy", "Business", "First")),
		schema.NewTree("b", schema.NewField("Cabin", "", "economy", "business", "first")),
		schema.NewTree("c", schema.NewField("Colors", "", "Red", "Blue")),
	}
	assign(t, trees, Options{})
	if trees[0].Leaves()[0].Cluster != trees[1].Leaves()[0].Cluster {
		t.Error("instance overlap should match the unlabeled field with Cabin")
	}
	if trees[2].Leaves()[0].Cluster == trees[0].Leaves()[0].Cluster {
		t.Error("disjoint instance sets must not match")
	}
}

func TestAssignSameInterfaceNeverMatches(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("a",
			schema.NewField("City", ""),
			schema.NewField("Town", ""), // synonym on the same interface
		),
	}
	assign(t, trees, Options{})
	leaves := trees[0].Leaves()
	if leaves[0].Cluster == leaves[1].Cluster {
		t.Error("two fields of one interface must stay in distinct clusters")
	}
}

// TestEvaluateOnCorpus: the matcher must reach reasonable pairwise
// precision and recall on the synthetic corpora (style variation and
// unlabeled fields bound recall well below 1).
func TestEvaluateOnCorpus(t *testing.T) {
	for _, name := range []string{"Job", "Book"} {
		d, err := dataset.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		trees := d.Generate()
		// Drop 1:m leaves: the matcher works on 1:1 fields.
		for _, tr := range trees {
			tr.Root.Walk(func(n *schema.Node) bool {
				if len(n.MultiClusters) > 0 {
					n.MultiClusters = nil
				}
				return true
			})
		}
		q := Evaluate(trees, Options{})
		// Transitive closure over synonym-level equivalence over-merges a
		// little; the substitute matcher trades some precision for
		// simplicity (the evaluation uses ground-truth clusters anyway).
		if q.Precision < 0.65 {
			t.Errorf("%s: matcher precision %.2f too low", name, q.Precision)
		}
		if q.Recall < 0.4 {
			t.Errorf("%s: matcher recall %.2f too low", name, q.Recall)
		}
		if q.Clusters == 0 {
			t.Errorf("%s: no clusters formed", name)
		}
	}
}

// TestJaccard covers the instance signal through the table's
// normalization: values compare case-folded, trimmed and deduplicated.
func TestJaccard(t *testing.T) {
	fields, _ := tableFields(cluster.NewTable([]*schema.Tree{
		schema.NewTree("a", schema.NewField("", "", "a", " b")),
		schema.NewTree("b", schema.NewField("", "", "B", "c ")),
		schema.NewTree("c", schema.NewField("", "")),
		schema.NewTree("d", schema.NewField("", "", "B", " a", "A")),
	}))
	if j := jaccard(fields[0].inst, fields[3].inst); j != 1 {
		t.Errorf("jaccard = %v, want 1 (a repeated value counts once)", j)
	}
	if j := jaccard(fields[0].inst, fields[1].inst); j < 0.33 || j > 0.34 {
		t.Errorf("jaccard = %v, want 1/3 (case-insensitive, trimmed)", j)
	}
	if j := jaccard(fields[2].inst, fields[2].inst); j != 0 {
		t.Errorf("jaccard of empties = %v, want 0", j)
	}
}
