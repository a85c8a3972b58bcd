package schema

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzTreeJSON throws arbitrary bytes at the tree codec: no input may
// panic, and any input that decodes must survive an encode→decode round
// trip unchanged — the property the labeling service's cache snapshots
// and the golden corpus depend on — and so must the canonical encoding
// its result cache keeps: decoded, it gives back every tree's hash.
func FuzzTreeJSON(f *testing.F) {
	valid := []*Tree{
		NewTree("aa",
			NewGroup("Passengers",
				NewField("Adults", "c_Adult"),
				NewField("Children", "c_Child"),
			),
			NewField("From", "c_From"),
		),
		NewTree("bb",
			NewField("Class", "c_Class", "Economy", "Business"),
			NewMultiField("Passengers", "c_Adult", "c_Child"),
		),
	}
	if seed, err := EncodeTrees(valid); err == nil {
		f.Add(seed)
	}
	for _, seed := range []string{
		`[]`,
		`[{"interface":"x","root":{"label":"","children":[{"label":"A"}]}}]`,
		`[{"interface":"x"}]`,
		`[{`, `null`, `{}`, `0`, `"tree"`,
		`[{"interface":"x","root":{"label":"r","children":[{"label":"A","cluster":"c","multiClusters":["d"]}]}}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		trees, err := DecodeTrees(data)
		if err != nil {
			return // rejected input; just must not panic
		}
		// Whatever decodes cleanly must re-encode and decode to the same
		// trees: identical hashes, identical renderings, identical bytes on
		// a second round trip.
		enc, err := EncodeTrees(trees)
		if err != nil {
			t.Fatalf("decoded trees failed to encode: %v", err)
		}
		again, err := DecodeTrees(enc)
		if err != nil {
			t.Fatalf("encoded form of accepted input failed to decode: %v", err)
		}
		if HashTrees(trees) != HashTrees(again) {
			t.Fatalf("round trip changed the canonical hash\nbefore: %s\nafter:  %s", HashTrees(trees), HashTrees(again))
		}
		for i := range trees {
			if trees[i].String() != again[i].String() {
				t.Fatalf("round trip changed tree %d:\nbefore:\n%s\nafter:\n%s", i, trees[i], again[i])
			}
		}
		enc2, err := EncodeTrees(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point after one round trip")
		}
		// The canonical encoding the server's result cache keeps decodes
		// back to trees with the same hashes.
		canon, hashes := EncodeCanonical(trees)
		back, err := DecodeCanonical(canon)
		if err != nil {
			t.Fatalf("canonical encoding failed to decode: %v", err)
		}
		if got := TreeHashes(back); !slices.Equal(got, hashes) || !slices.Equal(hashes, TreeHashes(trees)) {
			t.Fatalf("canonical round trip changed the hashes\nbefore: %v\nafter:  %v", hashes, got)
		}
	})
}
