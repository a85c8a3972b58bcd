package dataset

import (
	"reflect"
	"strings"
	"testing"

	"qilabel/internal/cluster"
	"qilabel/internal/schema"
)

func TestDomainsRoster(t *testing.T) {
	ds := Domains()
	if len(ds) != 7 {
		t.Fatalf("got %d domains, want 7", len(ds))
	}
	want := []string{"Airline", "Auto", "Book", "Job", "Real Estate", "Car Rental", "Hotels"}
	for i, d := range ds {
		if d.Name != want[i] {
			t.Errorf("domain %d = %q, want %q", i, d.Name, want[i])
		}
	}
}

func TestByName(t *testing.T) {
	for _, q := range []string{"airline", "REALESTATE", "Real Estate", "car rental"} {
		if _, err := ByName(q); err != nil {
			t.Errorf("ByName(%q): %v", q, err)
		}
	}
	if _, err := ByName("groceries"); err == nil {
		t.Error("unknown domain must fail")
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, d := range Domains() {
		a, b := d.Generate(), d.Generate()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: generation is not deterministic", d.Name)
		}
	}
}

func TestGeneratedTreesAreValid(t *testing.T) {
	for _, d := range Domains() {
		trees := d.Generate()
		if len(trees) != d.Interfaces {
			t.Errorf("%s: %d trees, want %d", d.Name, len(trees), d.Interfaces)
		}
		names := map[string]bool{}
		for _, tr := range trees {
			if err := tr.Validate(); err != nil {
				t.Errorf("%s/%s: %v", d.Name, tr.Interface, err)
			}
			if names[tr.Interface] {
				t.Errorf("%s: duplicate interface name %s", d.Name, tr.Interface)
			}
			names[tr.Interface] = true
			if len(tr.Leaves()) == 0 {
				t.Errorf("%s/%s: interface with no fields", d.Name, tr.Interface)
			}
		}
	}
}

// TestSourceStatShape asserts the corpus reproduces the qualitative shape
// of Table 6 columns 2-5: Airline and Car Rental are the biggest and worst
// labeled; Job is the smallest and flattest; Hotels has 30 interfaces.
func TestSourceStatShape(t *testing.T) {
	stats := map[string]SourceStats{}
	for _, d := range Domains() {
		stats[d.Name] = Stats(d.Generate())
	}
	if stats["Hotels"].Interfaces != 30 {
		t.Errorf("Hotels has %d interfaces, want 30", stats["Hotels"].Interfaces)
	}
	for _, name := range []string{"Airline", "Auto", "Book", "Job", "Real Estate", "Car Rental"} {
		if stats[name].Interfaces != 20 {
			t.Errorf("%s has %d interfaces, want 20", name, stats[name].Interfaces)
		}
	}
	// LQ ordering: Airline and Car Rental are the poorly labeled domains.
	for _, poor := range []string{"Airline", "Car Rental"} {
		for _, good := range []string{"Auto", "Book", "Job", "Real Estate"} {
			if stats[poor].LabelQuality >= stats[good].LabelQuality {
				t.Errorf("LQ(%s)=%.2f should be below LQ(%s)=%.2f",
					poor, stats[poor].LabelQuality, good, stats[good].LabelQuality)
			}
		}
	}
	// Depth ordering: Airline is the deepest; Job the flattest.
	if stats["Airline"].AvgDepth <= stats["Job"].AvgDepth {
		t.Error("Airline should be deeper than Job")
	}
	if stats["Job"].AvgDepth > 2.6 {
		t.Errorf("Job depth %.2f too deep; the domain is nearly flat", stats["Job"].AvgDepth)
	}
	if stats["Job"].AvgInternal > 0.8 {
		t.Errorf("Job internal nodes %.2f; should be close to flat", stats["Job"].AvgInternal)
	}
	// Size ordering: Airline and Car Rental carry the most fields.
	if stats["Airline"].AvgLeaves <= stats["Job"].AvgLeaves {
		t.Error("Airline interfaces should carry more fields than Job's")
	}
	// Absolute bands (generous: the corpus is synthetic).
	for name, st := range stats {
		if st.AvgLeaves < 3 || st.AvgLeaves > 16 {
			t.Errorf("%s: avg leaves %.1f outside sanity band", name, st.AvgLeaves)
		}
		if st.LabelQuality < 0.40 || st.LabelQuality > 0.97 {
			t.Errorf("%s: LQ %.2f outside sanity band", name, st.LabelQuality)
		}
	}
}

// TestAirlinePhenomena: the Airline corpus must contain a 1:m Passengers
// field and the frequency-1 unlabeled frequent-flyer group.
func TestAirlinePhenomena(t *testing.T) {
	d, _ := ByName("Airline")
	trees := d.Generate()
	oneToMany := false
	ff := 0
	for _, tr := range trees {
		tr.Root.Walk(func(n *schema.Node) bool {
			if len(n.MultiClusters) > 0 {
				oneToMany = true
			}
			if n.Cluster == "c_FFNumber" {
				ff++
				if n.Label == "" {
					t.Errorf("%s: frequent-flyer field should carry its branded label", tr.Interface)
				}
			}
			return true
		})
	}
	if !oneToMany {
		t.Error("no 1:m Passengers field generated")
	}
	if ff == 0 {
		t.Error("the frequency-1 frequent-flyer group never materialized")
	}
	if ff > 3 {
		t.Errorf("frequent-flyer group on %d interfaces; should be rare", ff)
	}
}

// TestRealEstateLeasePhenomenon: c_LeaseFrom is never labeled but always
// carries instances; c_LeaseTo is labeled somewhere.
func TestRealEstateLeasePhenomenon(t *testing.T) {
	d, _ := ByName("Real Estate")
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	m, err := cluster.NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	from := m.Get("c_LeaseFrom")
	if from == nil {
		t.Fatal("c_LeaseFrom missing from corpus")
	}
	if labels := from.Labels(); len(labels) != 0 {
		t.Errorf("c_LeaseFrom has labels %v; must be unlabeled everywhere", labels)
	}
	if len(from.Instances("")) == 0 {
		t.Error("c_LeaseFrom must carry instances")
	}
	to := m.Get("c_LeaseTo")
	if to == nil || len(to.Labels()) == 0 {
		t.Error("c_LeaseTo must be labeled somewhere")
	}
}

// TestBookLabelsAsValues: some Book source labels the format field with a
// value ("Hardcover") that other sources list among Format's instances.
func TestBookLabelsAsValues(t *testing.T) {
	d, _ := ByName("Book")
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	m, err := cluster.NewTable(trees).DeriveMapping()
	if err != nil {
		t.Fatal(err)
	}
	format := m.Get("c_Format")
	if format == nil {
		t.Fatal("c_Format missing")
	}
	labels := format.Labels()
	hasTrap := false
	for _, l := range labels {
		if strings.EqualFold(l, "Hardcover") {
			hasTrap = true
		}
	}
	if !hasTrap {
		t.Skip("value-label style not sampled in this corpus seed")
	}
	found := false
	for _, v := range format.Instances("") {
		if strings.EqualFold(v, "Hardcover") {
			found = true
		}
	}
	if !found {
		t.Error("Hardcover should appear among the cluster's instances")
	}
}

func TestStatsEmpty(t *testing.T) {
	st := Stats(nil)
	if st.Interfaces != 0 || st.AvgLeaves != 0 {
		t.Error("empty corpus should produce zero stats")
	}
}

func TestRNGUniformity(t *testing.T) {
	r := newRNG(42)
	buckets := make([]int, 10)
	for i := 0; i < 10000; i++ {
		f := r.float()
		if f < 0 || f >= 1 {
			t.Fatalf("float out of range: %v", f)
		}
		buckets[int(f*10)]++
	}
	for i, b := range buckets {
		if b < 700 || b > 1300 {
			t.Errorf("bucket %d has %d hits; distribution badly skewed", i, b)
		}
	}
	if r.intn(0) != 0 {
		t.Error("intn(0) should be 0")
	}
}

func TestVariantResolution(t *testing.T) {
	if variant(nil, 0) != "" {
		t.Error("no variants -> empty")
	}
	if variant([]string{"A"}, 3) != "A" {
		t.Error("style wraps modulo variants")
	}
	if variant([]string{"A", "-"}, 1) != "" {
		t.Error("dash means unlabeled")
	}
}
