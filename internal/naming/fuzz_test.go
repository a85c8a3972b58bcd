package naming

import "testing"

// FuzzRelate drives Definition 1 with arbitrary label pairs: Relate must
// never panic and must keep its algebraic guarantees — reflexivity to
// string equality, hypernym/hyponym duality, memoized/unmemoized
// agreement, and the per-level equivalence-key facts the blocking relies
// on (checkBlockingKeys) — for any input.
func FuzzRelate(f *testing.F) {
	seeds := [][2]string{
		{"From", "From"},
		{"Type of Job", "Job Type"},
		{"Area of Study", "Field of Work"},
		{"Class", "Class of Tickets"},
		{"Make/Model", "Model Make"},
		{"", "Adults"},
		{"of the", "and or"},
		{"日本語", "label"},
		{"a b c d e f g h", "h g f e d c b a"},
	}
	for _, s := range seeds {
		f.Add(s[0], s[1])
	}
	sem := NewSemantics(nil)
	ref := NewSemanticsUnmemoized(nil)
	f.Fuzz(func(t *testing.T, a, b string) {
		// Guard against pathological content-word counts blowing up the
		// synonym matching; real labels have at most a handful of words.
		if sem.ContentWordCount(a) > 8 || sem.ContentWordCount(b) > 8 {
			t.Skip()
		}
		ab := sem.Relate(a, b)
		ba := sem.Relate(b, a)
		if want := ref.Relate(a, b); ab != want {
			t.Errorf("memoized Relate(%q,%q)=%v, unmemoized says %v", a, b, ab, want)
		}
		switch ab {
		case RelStringEqual, RelEqual, RelSynonym, RelNone:
			if ba != ab {
				t.Errorf("Relate(%q,%q)=%v but Relate(%q,%q)=%v", a, b, ab, b, a, ba)
			}
		case RelHypernym:
			if ba != RelHyponym {
				t.Errorf("duality violated: %q %q -> %v / %v", a, b, ab, ba)
			}
		case RelHyponym:
			if ba != RelHypernym {
				t.Errorf("duality violated: %q %q -> %v / %v", a, b, ab, ba)
			}
		}
		if err := checkBlockingKeys(sem, a, b); err != nil {
			t.Error(err)
		}
		if norm := sem.analyze(a).display; norm != "" && sem.Relate(a, a) != RelStringEqual {
			t.Errorf("Relate(%q,%q) not string-equal", a, a)
		}
	})
}
