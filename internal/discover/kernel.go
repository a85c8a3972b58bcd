package discover

import (
	"strings"

	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// formSig is the similarity signature of one ingested form: the distinct,
// trimmed field labels of its leaves in first-seen order. Labels are the
// only signal the kernel consults — they are what the naming algorithm
// reasons over, so two forms that the labeler could reconcile into one
// interface score high, and forms over disjoint vocabularies score zero.
type formSig struct {
	hash   string
	labels []string
	tree   *schema.Tree // pristine clone, re-integrated on every membership change
}

// newFormSig derives the signature of a validated tree. The caller owns
// the clone decision; the signature aliases the given tree.
func newFormSig(t *schema.Tree) *formSig {
	sig := &formSig{hash: t.CanonicalHash(), tree: t}
	seen := make(map[string]bool)
	for _, leaf := range t.Leaves() {
		l := strings.TrimSpace(leaf.Label)
		if l == "" || seen[l] {
			continue
		}
		seen[l] = true
		sig.labels = append(sig.labels, l)
	}
	return sig
}

// similarity is the relatedness kernel between two forms: the fraction of
// field labels on either side that have a Definition 1 relationship
// (string-equal, equal, synonym, hypernym or hyponym) to some label of
// the other form — a Dice-style coefficient in [0, 1].
//
//	sim(A, B) = (|{a ∈ A : ∃b ∈ B related}| + |{b ∈ B : ∃a ∈ A related}|) / (|A| + |B|)
//
// The kernel is symmetric by construction (both directions are counted,
// and Definition 1's relatedness is itself symmetric: hypernymy one way
// is hyponymy the other), and it is a pure function of the two label sets
// and the lexicon — the properties the engine's permutation-invariance
// contract rests on. Forms without any labeled field score zero against
// everything.
func similarity(sem *naming.Semantics, a, b *formSig) float64 {
	if len(a.labels)+len(b.labels) == 0 {
		return 0
	}
	matched := 0
	for _, la := range a.labels {
		for _, lb := range b.labels {
			if sem.Relate(la, lb) != naming.RelNone {
				matched++
				break
			}
		}
	}
	for _, lb := range b.labels {
		for _, la := range a.labels {
			if sem.Relate(lb, la) != naming.RelNone {
				matched++
				break
			}
		}
	}
	return float64(matched) / float64(len(a.labels)+len(b.labels))
}
