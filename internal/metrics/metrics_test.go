package metrics

import (
	"context"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// integrate runs the stages over source trees as the Integrator does, in
// the order given: 1:m expansion, the table and its derived mapping,
// merge.MergeTable and naming.RunTable.
func integrate(t *testing.T, trees []*schema.Tree) (*merge.Result, *naming.Result) {
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
	res, err := naming.RunTable(context.Background(), mr, tab, naming.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return mr, res
}

// runDomain integrates one domain and returns its unexpanded sources too.
func runDomain(t *testing.T, name string) ([]*schema.Tree, *merge.Result, *naming.Result) {
	t.Helper()
	d, err := dataset.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	mr, res := integrate(t, d.Generate())
	return d.Generate(), mr, res
}

func TestEvaluateAllDomains(t *testing.T) {
	for _, d := range dataset.Domains() {
		src, mr, res := runDomain(t, d.Name)
		r := Evaluate(d.Name, src, mr, res)
		if r.Domain != d.Name {
			t.Errorf("domain mismatch")
		}
		for _, v := range []float64{r.FldAcc, r.IntAcc, r.HA, r.HAPrime, r.LQ} {
			if v < 0 || v > 1 {
				t.Errorf("%s: metric %v outside [0,1]", d.Name, v)
			}
		}
		if r.HAPrime < r.HA {
			t.Errorf("%s: HA' (%.3f) must not be below HA (%.3f): it discounts source-inherited errors",
				d.Name, r.HAPrime, r.HA)
		}
		if r.SrcLeaves <= 0 || r.IntLeaves <= 0 {
			t.Errorf("%s: degenerate sizes in report %+v", d.Name, r)
		}
		row := r.FormatTable6Row()
		if !strings.Contains(row, d.Name) {
			t.Errorf("row rendering broken: %q", row)
		}
	}
	if !strings.Contains(Table6Header(), "FldAcc") {
		t.Error("header rendering broken")
	}
}

// TestTable6Shape asserts the headline accuracy claims of Table 6 hold in
// shape: FldAcc near-perfect everywhere (>= 95%, with Real Estate allowed
// its No-Label deficit), IntAcc perfect on the easy domains and reduced on
// Airline, and HA in the 90s.
func TestTable6Shape(t *testing.T) {
	rep := map[string]Report{}
	for _, d := range dataset.Domains() {
		src, mr, res := runDomain(t, d.Name)
		rep[d.Name] = Evaluate(d.Name, src, mr, res)
	}
	for name, r := range rep {
		if r.FldAcc < 0.90 {
			t.Errorf("%s: FldAcc %.1f%% too low", name, r.FldAcc*100)
		}
		if r.HA < 0.85 {
			t.Errorf("%s: HA %.1f%% too low", name, r.HA*100)
		}
	}
	// The easy domains label every internal node.
	for _, name := range []string{"Auto", "Book", "Job"} {
		if rep[name].IntAcc < 0.99 {
			t.Errorf("%s: IntAcc %.1f%%, want 100%%", name, rep[name].IntAcc*100)
		}
	}
	// Airline's unlabeled frequency-1 group must depress IntAcc below the
	// easy domains'.
	if rep["Airline"].IntAcc >= 1.0 {
		t.Errorf("Airline IntAcc should be reduced; got %.1f%%", rep["Airline"].IntAcc*100)
	}
	// Real Estate's No-Label lease field depresses FldAcc below 100%.
	if rep["Real Estate"].FldAcc >= 1.0 {
		t.Errorf("Real Estate FldAcc should show the No-Label deficit; got %.1f%%",
			rep["Real Estate"].FldAcc*100)
	}
	// The classification pattern of §7: Airline and Car Rental
	// inconsistent, everything else consistent or weakly consistent.
	for _, name := range []string{"Airline", "Car Rental"} {
		if rep[name].Class != naming.ClassInconsistent {
			t.Errorf("%s: class %v, want inconsistent", name, rep[name].Class)
		}
	}
	for _, name := range []string{"Auto", "Book", "Job", "Real Estate", "Hotels"} {
		if rep[name].Class == naming.ClassInconsistent {
			t.Errorf("%s: class inconsistent; paper reports it acceptable", name)
		}
	}
	// HA' recovers errors on the domains with frequency-1 fields.
	for _, name := range []string{"Airline", "Book", "Car Rental", "Hotels"} {
		if rep[name].HAPrime <= rep[name].HA && rep[name].HA < 1.0 {
			t.Errorf("%s: HA' (%.3f) should improve on HA (%.3f)", name, rep[name].HAPrime, rep[name].HA)
		}
	}
}

func TestLIShares(t *testing.T) {
	var c naming.Counters
	c.Add(2)
	c.Add(2)
	c.Add(3)
	c.Add(7)
	shares := LIShares(c)
	if shares[2] != 0.5 || shares[3] != 0.25 || shares[7] != 0.25 {
		t.Errorf("shares = %v", shares)
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	empty := LIShares(naming.Counters{})
	for li, v := range empty {
		if v != 0 {
			t.Errorf("empty counters: share[%d]=%v", li, v)
		}
	}
}

// TestFigure10Shape: across all domains, LI2 and LI3 are the most-used
// rules, and every rule fires at least once.
func TestFigure10Shape(t *testing.T) {
	var total naming.Counters
	for _, d := range dataset.Domains() {
		_, _, res := runDomain(t, d.Name)
		for li := 1; li <= 7; li++ {
			total.LI[li] += res.Counters.LI[li]
		}
	}
	if total.Total() == 0 {
		t.Fatal("no inference rules fired at all")
	}
	for li := 1; li <= 7; li++ {
		if total.LI[li] == 0 {
			t.Errorf("LI%d never fired across the seven domains", li)
		}
	}
	shares := LIShares(total)
	if shares[2]+shares[3] < 0.4 {
		t.Errorf("LI2+LI3 share %.2f; the paper reports them dominant", shares[2]+shares[3])
	}
}

func TestHumanAcceptanceEdgeCases(t *testing.T) {
	// A single-source, fully labeled corpus: every cluster has frequency 1,
	// so HA collapses but HA' discounts everything.
	mr, _ := integrate(t, []*schema.Tree{schema.NewTree("only", schema.NewField("A", "c_A"))})
	ha, hap := HumanAcceptance(mr)
	want := 1 - 4.0/11.0 // the minority flag rate for frequency-1 fields
	if ha < want-1e-9 || ha > want+1e-9 {
		t.Errorf("ha = %v, want %v (all frequency-1, flagged by a minority)", ha, want)
	}
	if hap != 1 {
		t.Errorf("ha' = %v, want 1 (all discounted)", hap)
	}
}
