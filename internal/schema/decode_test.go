package schema

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// decodeTreesRaw is DecodeTrees without the validation: the Decoder's
// trees exactly as json.Unmarshal would build them.
func decodeTreesRaw(data []byte) ([]*Tree, error) {
	var trees []*Tree
	d := NewDecoder(data)
	err := d.Trees(&trees)
	if err == nil {
		err = d.end()
	}
	return trees, err
}

// checkLikeUnmarshal fails unless the Decoder accepts data exactly when
// json.Unmarshal does into []*Tree, building reflect.DeepEqual trees, and
// unless, without building them, AppendCanonical encodes and hashes those
// trees as EncodeCanonical does.
func checkLikeUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	var want []*Tree
	wantErr := json.Unmarshal(data, &want)
	got, gotErr := decodeTreesRaw(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%q: encoding/json error %v, Decoder error %v", data, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		wj, _ := json.Marshal(want)
		gj, _ := json.Marshal(got)
		t.Fatalf("%q: trees differ\nencoding/json: %s\nDecoder:       %s", data, wj, gj)
	}
	var raw RawTrees
	d := NewDecoder(data)
	defer d.Release()
	if err := d.RawTrees(&raw); err != nil {
		t.Fatalf("%q: RawTrees error %v", data, err)
	}
	enc, hashes, null := d.AppendCanonical([]byte("prefix"), raw)
	if i := slices.Index(want, nil); null != i || raw.Len() != len(want) {
		t.Fatalf("%q: %d trees, first null %d; encoding/json %d, %d", data, raw.Len(), null, len(want), i)
	} else if i >= 0 {
		return
	}
	wantEnc, wantHashes := EncodeCanonical(want)
	if !bytes.Equal(enc, append([]byte("prefix"), wantEnc...)) || !slices.Equal(hashes, wantHashes) {
		t.Fatalf("%q: canonical encoding or hashes differ from EncodeCanonical's", data)
	}
}

// decoderCases are the inputs json.Unmarshal treats specially; the
// differential fuzz target in internal/server seeds from them too.
var decoderCases = []string{
	`null`, `[]`, `[null]`, ` [ ] `, `{}`, `""`, `0`, `true`, ``, ` `, `[`, `]`,
	`[{}]`, `[{"interface":null,"root":null}]`,
	// Key case and Unicode folding: K (U+212A) and ſ (U+017F) fold to k, s.
	`[{"Interface":"a","ROOT":{"Label":"x","CHILDREN":[{"cluſter":"c"}]}}]`,
	`[{"interface":"a","root":{"multiclusters":["K"],"multiClusters":["k"],"aggregated":true}}]`,
	"[{\"interface\":\"a\",\"root\":{\"K\":1,\"labelK\":2,\"labeℬ\":3}}]",
	// Unknown fields: skipped, but still valid JSON.
	`[{"interface":"a","x":{"y":[1,2.5e-3,-0,true,false,null,"s"]},"root":{}}]`,
	`[{"interface":"a","x":[1,]}]`, `[{"interface":"a","x":01}]`, `[{"interface":"a","x":1.}]`,
	`[{"interface":"a","x":-}]`, `[{"interface":"a","x":1e}]`, `[{"interface":"a","x":tru}]`,
	// Repeated keys merge into the value already there.
	`[{"interface":"a","root":{"label":"r","cluster":"c"},"root":{"label":"s"}}]`,
	`[{"interface":"a","root":{"children":[{"label":"a","cluster":"x"},{"label":"b"}],"children":[{"cluster":"y"}]}}]`,
	`[{"interface":"a","root":{"children":[{"label":"a"},{"label":"b"},{"label":"c"}],"children":[{}],"children":[{},{},{},{}]}}]`,
	`[{"interface":"a","root":{"instances":["a","b","c"],"instances":[null],"instances":[null,null,null]}}]`,
	`[{"interface":"a","root":{"children":[{"label":"a"}],"children":[],"children":[{}]}}]`,
	`[{"interface":"a","root":{"children":[{"label":"a"}],"children":null,"children":[{}]}}]`,
	`[{"interface":"a","root":{"label":"x","label":null,"aggregated":true,"aggregated":null}}]`,
	`[{"interface":"a","root":{"label":"x"},"root":null,"root":{"cluster":"c"}}]`,
	// Escapes, surrogates and invalid UTF-8.
	`[{"interface":"\"\\\/\b\f\n\r\tAé€"}]`,
	`[{"interface":"😀 \ud83d \ude00 \ud83dA \udc00\ud83d x\ud83d😀"}]`,
	"[{\"interface\":\"\xff\xfe a\xc3 \xed\xa0\x80 \xef\xbf\xbd \xe2\x82\"}]",
	`[{"interface":"\x"}]`, `[{"interface":"\u12"}]`, `[{"interface":"\u12g4"}]`,
	"[{\"interface\":\"a\tb\"}]", `[{"interface":"a`, `[{"inter`,
	// Wrong types in every position.
	`[1]`, `["a"]`, `[[]]`, `[true]`, `{"interface":"a"}`,
	`[{"interface":1}]`, `[{"interface":{}}]`, `[{"interface":[]}]`, `[{"interface":true}]`,
	`[{"root":1}]`, `[{"root":[]}]`, `[{"root":"r"}]`, `[{"root":true}]`,
	`[{"root":{"label":1}}]`, `[{"root":{"label":[]}}]`, `[{"root":{"cluster":false}}]`,
	`[{"root":{"instances":"a"}}]`, `[{"root":{"instances":[1]}}]`, `[{"root":{"instances":[[]]}}]`,
	`[{"root":{"instances":{}}}]`, `[{"root":{"children":{}}}]`, `[{"root":{"children":[1]}}]`,
	`[{"root":{"children":["a"]}}]`, `[{"root":{"children":[[]]}}]`, `[{"root":{"children":[null]}}]`,
	`[{"root":{"multiClusters":"a"}}]`, `[{"root":{"multiClusters":[true]}}]`,
	`[{"root":{"aggregated":1}}]`, `[{"root":{"aggregated":"true"}}]`, `[{"root":{"aggregated":[]}}]`,
	// Trailing bytes: json.Unmarshal allows white space only.
	"[] \t\r\n", `[]x`, `[] []`, `null null`, `[]]`, `[{}]}`,
	// Syntax.
	`[,]`, `[{},]`, `[{"a"}]`, `[{"a" 1}]`, `[{"a":1,}]`, `[{,}]`, `[{1:2}]`, `[{"a":1 "b":2}]`,
	"[\x00]", `[nul]`, `[nullx]`, `[{"root":{"label":"x"}`,
}

func TestDecoderMatchesUnmarshal(t *testing.T) {
	for _, c := range decoderCases {
		checkLikeUnmarshal(t, []byte(c))
	}
	valid := []*Tree{hashTree(), NewTree("bb", NewMultiField("Passengers", "c_Adult", "c_Child"))}
	enc, err := EncodeTrees(valid)
	if err != nil {
		t.Fatal(err)
	}
	checkLikeUnmarshal(t, enc)
	compact, err := json.Marshal(valid)
	if err != nil {
		t.Fatal(err)
	}
	checkLikeUnmarshal(t, compact)
}

// TestDecoderDepth pins encoding/json's nesting limit, 10,000 open
// objects and arrays, at both sides of the boundary, in an unknown key
// and in the tree itself, and checks that far deeper input is rejected
// (without exhausting the stack).
func TestDecoderDepth(t *testing.T) {
	unknown := func(n int) []byte { // n levels in all: the outer array, the tree, n-2 arrays
		return []byte(`[{"x":` + strings.Repeat("[", n-2) + strings.Repeat("]", n-2) + `}]`)
	}
	children := func(levels int) []byte { // 2 + 2·levels containers deep
		var b bytes.Buffer
		b.WriteString(`[{"interface":"a","root":{"label":"r"`)
		for i := 0; i < levels; i++ {
			b.WriteString(`,"children":[{"label":"n"`)
		}
		for i := 0; i < levels; i++ {
			b.WriteString(`}]`)
		}
		b.WriteString(`}}]`)
		return b.Bytes()
	}
	for _, c := range []struct {
		data []byte
		ok   bool
	}{
		{unknown(maxDepth), true},
		{unknown(maxDepth + 1), false},
		{children((maxDepth - 3) / 2), true},
		{children((maxDepth-3)/2 + 1), false},
		{[]byte(`[{"x":` + strings.Repeat("[", 1_000_000)), false},
		{children(100_000), false},
	} {
		_, err := decodeTreesRaw(c.data)
		if (err == nil) != c.ok {
			t.Fatalf("%d bytes: error %v, want ok=%v", len(c.data), err, c.ok)
		}
		checkLikeUnmarshal(t, c.data)
	}
}

// TestDecoderCopiesStrings pins that no decoded string shares memory with
// the input or with the released scratch, whose text holds the unescaped
// strings: overwriting both leaves the trees unchanged.
func TestDecoderCopiesStrings(t *testing.T) {
	data := []byte(`[{"interface":"aa","root":{"children":[{"label":"From","cluster":"c_From","instances":["x","y\n"]},{"label":"Fr\u00f6m"}]}}]`)
	trees, err := DecodeTrees(data)
	if err != nil {
		t.Fatal(err)
	}
	want := trees[0].String()
	for i := range data {
		data[i] = 'z'
	}
	s := scratches.Get()
	for i := range s.text[:cap(s.text)] {
		s.text[:cap(s.text)][i] = 'z'
	}
	scratches.Put(s)
	if got := trees[0].String(); got != want {
		t.Fatalf("trees changed with the input:\n%s\nwant\n%s", got, want)
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	trees := []*Tree{
		hashTree(),
		NewTree("bb", NewMultiField("Passengers", "c_Adult", "c_Child")),
		{Interface: "nil root"},
		{Interface: "", Root: &Node{Label: "x", Aggregated: true, Children: []*Node{nil, {Instances: []string{""}}}}},
	}
	enc, hashes := EncodeCanonical(trees)
	if len(enc) != cap(enc) {
		t.Fatalf("encoding has length %d, capacity %d", len(enc), cap(enc))
	}
	if want := TreeHashes(trees); !reflect.DeepEqual(hashes, want) {
		t.Fatalf("hashes %v, want %v", hashes, want)
	}
	back, err := DecodeCanonical(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(TreeHashes(back), hashes) {
		t.Fatal("decoded trees hash differently")
	}
	if !reflect.DeepEqual(back[:2], trees[:2]) {
		t.Fatal("decoded trees differ from the encoded ones")
	}
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeCanonical(enc[:n]); err == nil && n != 0 {
			if got, _ := DecodeCanonical(enc[:n]); len(got) == len(trees) {
				t.Fatalf("prefix of %d bytes decoded to every tree", n)
			}
		}
	}
	if _, err := DecodeCanonical([]byte{0, 0, 0, 1, 'a', 0xff, 0xff, 0xff, 0xfe}); err == nil {
		t.Fatal("an impossible length decoded")
	}
}
