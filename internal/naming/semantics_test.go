package naming

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"qilabel/internal/cluster"
	"qilabel/internal/lexicon"
	"qilabel/internal/synth"
)

// TestRelateDefinition1Examples checks every example the paper gives for
// Definition 1.
func TestRelateDefinition1Examples(t *testing.T) {
	s := NewSemantics(nil)
	cases := []struct {
		a, b string
		want Rel
	}{
		{"From", "From", RelStringEqual},
		{"from", "From", RelStringEqual},
		{"Type of Job", "Job Type", RelEqual},
		{"Preferred Airline", "Airline Preference", RelEqual}, // shared stems via Porter
		{"Area of Study", "Field of Work", RelSynonym},
		{"Class", "Class of Tickets", RelHypernym},
		{"Class of Tickets", "Class", RelHyponym},
		{"Location", "Property Location", RelHypernym},
		{"Departing from", "Going to", RelNone},
		{"Adults", "Children", RelNone},
	}
	for _, c := range cases {
		if got := s.Relate(c.a, c.b); got != c.want {
			t.Errorf("Relate(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelateSynonymNeedsSameCardinality(t *testing.T) {
	s := NewSemantics(nil)
	// "Area" vs "Field of Work": 1 vs 2 content words — not a synonym; but
	// area is a synonym of field, so hypernymy applies (n < m, rel may be
	// synonymy per Definition 1's hypernym clause).
	if got := s.Relate("Area", "Field of Work"); got != RelHypernym {
		t.Errorf("Relate(Area, Field of Work) = %v, want hypernym", got)
	}
}

func TestRelateConjunctionExcludedFromHypernymy(t *testing.T) {
	s := NewSemantics(nil)
	// Definition 1 assumes labels do not contain and/or/&//; hypernymy must
	// not be inferred for such labels.
	if got := s.Relate("Make", "Make and Model"); got == RelHypernym {
		t.Error("hypernymy must not be inferred over conjunction labels")
	}
	if got := s.Relate("Model", "Make/Model"); got == RelHypernym {
		t.Error("hypernymy must not be inferred over slash labels")
	}
	// Equality is still allowed.
	if got := s.Relate("Make/Model", "Model Make"); got != RelEqual {
		t.Errorf("Relate(Make/Model, Model Make) = %v, want equal", got)
	}
}

func TestRelateEmptyLabels(t *testing.T) {
	s := NewSemantics(nil)
	if got := s.Relate("", "Adults"); got != RelNone {
		t.Errorf("Relate(empty, x) = %v, want none", got)
	}
	if got := s.Relate("", ""); got != RelNone {
		t.Errorf("Relate(empty, empty) = %v, want none", got)
	}
	// A label of only stop words has no content words.
	if got := s.Relate("of the", "Adults"); got != RelNone {
		t.Errorf("Relate(stopwords, x) = %v, want none", got)
	}
}

func TestRelateQuestionPhrasings(t *testing.T) {
	s := NewSemantics(nil)
	// Figure 8 (middle): both specific preference questions are hyponyms of
	// the generic question whose content-word set is {prefer}.
	got := s.Relate("Do you have any preferences?", "Airline Preferences")
	if got != RelHypernym {
		t.Errorf("generic question vs Airline Preferences = %v, want hypernym", got)
	}
	got = s.Relate("What are your service preferences?", "Do you have any preferences?")
	if got != RelHyponym {
		t.Errorf("service question vs generic = %v, want hyponym", got)
	}
}

func TestEquivalent(t *testing.T) {
	s := NewSemantics(nil)
	if !s.Equivalent("Job Type", "Type of Job") {
		t.Error("equal labels are equivalent")
	}
	if !s.Equivalent("Area of Study", "Field of Work") {
		t.Error("synonym labels are equivalent")
	}
	if s.Equivalent("Class", "Class of Tickets") {
		t.Error("hypernymy is not equivalence")
	}
}

func TestAtLeastAsGeneral(t *testing.T) {
	s := NewSemantics(nil)
	cases := []struct {
		a, b string
		want bool
	}{
		{"Class", "Class of Tickets", true},
		{"Class of Tickets", "Class", false},
		{"Job Type", "Type of Job", true},
		{"Location", "City", true}, // lexicon hypernym
		{"City", "Location", false},
	}
	for _, c := range cases {
		if got := s.AtLeastAsGeneral(c.a, c.b); got != c.want {
			t.Errorf("AtLeastAsGeneral(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestContentWordCount(t *testing.T) {
	s := NewSemantics(nil)
	cases := map[string]int{
		"Class":                        1,
		"Class of Tickets":             2,
		"Max. Number of Stops":         3,
		"Do you have any preferences?": 1,
		"":                             0,
	}
	for in, want := range cases {
		if got := s.ContentWordCount(in); got != want {
			t.Errorf("ContentWordCount(%q) = %d, want %d", in, got, want)
		}
	}
}

// Properties: Relate is symmetric up to hypernym/hyponym duality, and
// Relate(a, a) is always string-equal for non-degenerate labels.
func TestRelateProperties(t *testing.T) {
	s := NewSemantics(nil)
	labels := []string{
		"From", "To", "Adults", "Seniors", "Children", "Infants",
		"Class", "Class of Tickets", "Flight Class", "Preferred Cabin",
		"Area of Study", "Field of Work", "Job Type", "Type of Job",
		"Location", "Property Location", "City", "State", "Zip Code",
		"Make", "Model", "Brand", "Number of Connections",
	}
	pick := func(seed int64) string {
		i := int(seed % int64(len(labels)))
		if i < 0 {
			i = -i
		}
		return labels[i]
	}
	dual := func(s1, s2 int64) bool {
		a, b := pick(s1), pick(s2)
		ab, ba := s.Relate(a, b), s.Relate(b, a)
		switch ab {
		case RelStringEqual, RelEqual, RelSynonym, RelNone:
			return ba == ab
		case RelHypernym:
			return ba == RelHyponym
		case RelHyponym:
			return ba == RelHypernym
		}
		return false
	}
	if err := quick.Check(dual, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("duality: %v", err)
	}
	refl := func(s1 int64) bool {
		a := pick(s1)
		return s.Relate(a, a) == RelStringEqual
	}
	if err := quick.Check(refl, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("reflexivity: %v", err)
	}
}

// TestFoldKey pins the string-equal half of the equivalence keys on
// non-ASCII case pairs ToLower alone would split.
func TestFoldKey(t *testing.T) {
	cases := [][2]string{
		{"Price", "PRICE"},
		{"straße", "STRAßE"},
		{"ς", "σ"}, // final vs medial sigma fold together
		{"K", "k"}, // Kelvin sign folds to k
	}
	for _, c := range cases {
		if !strings.EqualFold(c[0], c[1]) {
			t.Fatalf("test case %q vs %q is not EqualFold", c[0], c[1])
		}
		if foldKey(c[0]) != foldKey(c[1]) {
			t.Fatalf("foldKey(%q) = %q != foldKey(%q) = %q",
				c[0], foldKey(c[0]), c[1], foldKey(c[1]))
		}
	}
	if foldKey("price") == foldKey("prize") {
		t.Fatal("foldKey collides distinct words")
	}
}

// distinct returns the labels sorted, each once.
func distinct(labels []string) []string {
	slices.Sort(labels)
	return slices.Compact(labels)
}

// sharesKey reports whether the two labels' equivalence keys of the given
// families (their first bytes: d, s, y) intersect.
func sharesKey(s *Semantics, a, b, families string) bool {
	for _, ka := range s.EquivalenceKeys(a) {
		if strings.IndexByte(families, ka[0]) >= 0 && slices.Contains(s.EquivalenceKeys(b), ka) {
			return true
		}
	}
	return false
}

// checkBlockingKeys checks, for one label pair, the per-level facts the
// blocking on equivalence keys relies on: the labels are string-equal
// exactly when their d: keys are equal (the string level unions on the key
// without calling Relate), equal labels share an s: key, and synonyms an
// s: or y: key. Together they make Equivalent labels share
// a key, which the matcher blocks on.
func checkBlockingKeys(s *Semantics, a, b string) error {
	r := s.Relate(a, b)
	ok := true
	switch r {
	case RelEqual:
		ok = sharesKey(s, a, b, "s")
	case RelSynonym:
		ok = sharesKey(s, a, b, "sy")
	}
	if !ok || (r == RelStringEqual) != sharesKey(s, a, b, "d") {
		return fmt.Errorf("%q and %q are %v; keys %q vs %q", a, b, r,
			s.EquivalenceKeys(a), s.EquivalenceKeys(b))
	}
	return nil
}

// TestEquivalentLabelsShareKeys pins the facts the matcher's and the
// group partitioning's blocking rest on (checkBlockingKeys), over every
// pair of distinct labels of the seven domains' sources, and of a synth
// medium vocabulary under its own lexicon.
func TestEquivalentLabelsShareKeys(t *testing.T) {
	cfg, err := synth.Preset("medium")
	if err != nil {
		t.Fatal(err)
	}
	trees, lex, err := synth.GenerateWithLexicon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		lex    *lexicon.Lexicon
		labels []string
	}{
		{"domains", nil, domainLabels(t)},
		{"medium", lex, cluster.NewTable(trees).Labels},
	} {
		s := NewSemantics(c.lex)
		var related [RelHyponym + 1]int
		for i, a := range c.labels {
			for _, b := range c.labels[i+1:] {
				related[s.Relate(a, b)]++
				if err := checkBlockingKeys(s, a, b); err != nil {
					t.Fatalf("%s: %v", c.name, err)
				}
			}
		}
		t.Logf("%s: %d labels; %d string-equal, %d equal, %d synonym pairs", c.name, len(c.labels),
			related[RelStringEqual], related[RelEqual], related[RelSynonym])
		if related[RelEqual] == 0 || related[RelSynonym] == 0 {
			t.Fatalf("%s: no equal or no synonym pair to check", c.name)
		}
	}
}
