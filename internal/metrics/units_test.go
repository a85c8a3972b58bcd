package metrics

import (
	"testing"

	"qilabel/internal/schema"
)

// Each test integrates its trees, then sets the labels it scores on the
// integrated tree.

func TestFldAccCountsLabels(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewField("A", "c_A"),
			schema.NewField("B", "c_B"),
		),
		schema.NewTree("s2",
			schema.NewField("A", "c_A"),
		),
	}
	mr, _ := integrate(t, trees)
	// Assign labels manually: one labeled, one not.
	mr.LeafOf["c_A"].Label = "A"
	mr.LeafOf["c_B"].Label = ""
	if got := FldAcc(mr); got != 0.5 {
		t.Errorf("FldAcc = %v, want 0.5", got)
	}
	mr.LeafOf["c_B"].Label = "B"
	if got := FldAcc(mr); got != 1.0 {
		t.Errorf("FldAcc = %v, want 1", got)
	}
}

func TestIntAccCountsInternalLabels(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("G1", schema.NewField("A", "c_A"), schema.NewField("B", "c_B")),
			schema.NewGroup("G2", schema.NewField("C", "c_C"), schema.NewField("D", "c_D")),
		),
		schema.NewTree("s2",
			schema.NewGroup("G1", schema.NewField("A", "c_A"), schema.NewField("B", "c_B")),
			schema.NewGroup("G2", schema.NewField("C", "c_C"), schema.NewField("D", "c_D")),
		),
	}
	mr, _ := integrate(t, trees)
	internal := mr.Tree.InternalNodes()
	if len(internal) != 2 {
		t.Fatalf("expected 2 internal nodes, got %d", len(internal))
	}
	internal[0].Label, internal[1].Label = "G1", ""
	if got := IntAcc(mr); got != 0.5 {
		t.Errorf("IntAcc = %v, want 0.5", got)
	}
	internal[1].Label = "G2"
	if got := IntAcc(mr); got != 1.0 {
		t.Errorf("IntAcc = %v, want 1", got)
	}
}

func TestHumanAcceptanceHomonyms(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1",
			schema.NewGroup("G",
				schema.NewField("Type", "c_X"),
				schema.NewField("Type", "c_Y"),
			),
		),
		schema.NewTree("s2",
			schema.NewGroup("G",
				schema.NewField("Type", "c_X"),
				schema.NewField("Type", "c_Y"),
			),
		),
	}
	mr, _ := integrate(t, trees)
	mr.LeafOf["c_X"].Label = "Type"
	mr.LeafOf["c_Y"].Label = "Type"
	ha, _ := HumanAcceptance(mr)
	if ha != 0 {
		t.Errorf("ha = %v; two same-named siblings are both ambiguous", ha)
	}
	mr.LeafOf["c_Y"].Label = "Kind"
	ha, _ = HumanAcceptance(mr)
	if ha != 1 {
		t.Errorf("ha = %v after disambiguation, want 1", ha)
	}
}

func TestHumanAcceptanceUnlabeledNeedsInstances(t *testing.T) {
	trees := []*schema.Tree{
		schema.NewTree("s1", schema.NewField("", "c_A", "v1"), schema.NewField("", "c_B")),
		schema.NewTree("s2", schema.NewField("", "c_A", "v1"), schema.NewField("", "c_B")),
	}
	mr, _ := integrate(t, trees)
	mr.LeafOf["c_A"].Label = ""
	mr.LeafOf["c_A"].Instances = []string{"v1"}
	mr.LeafOf["c_B"].Label = ""
	mr.LeafOf["c_B"].Instances = nil
	ha, _ := HumanAcceptance(mr)
	// c_A is understandable via instances; c_B is not.
	if ha != 0.5 {
		t.Errorf("ha = %v, want 0.5", ha)
	}
}
