package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestSelfTimes: a span's self time is its duration minus the union of
// its children's intervals, clipped to its own; the rows sum to the root
// spans exactly when children nest without overlapping.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", ID: 0, Parent: -1, Start: 0, End: 100},
		{Name: "decode", ID: 1, Parent: 0, Start: 10, End: 30},
		{Name: "integrate", ID: 2, Parent: 0, Start: 30, End: 90},
		{Name: "match", ID: 3, Parent: 2, Start: 35, End: 55},
		{Name: "merge", ID: 4, Parent: 2, Start: 50, End: 70},  // overlaps match by 5
		{Name: "naming", ID: 5, Parent: 2, Start: 85, End: 95}, // runs 5 past its parent
		{Name: "op", ID: 6, Parent: -1, Start: 200, End: 240},
		{Name: "decode", ID: 7, Parent: 6, Start: 200, End: 215},
	}
	self, calls := selfTimes(spans)
	want := map[string]int64{
		"op":        (100 - 20 - 60) + (40 - 15),
		"decode":    20 + 15,
		"integrate": 60 - (35 + 5), // match∪merge covers 35..70, naming 85..90
		"match":     20,
		"merge":     20,
		"naming":    10,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self[%s] = %d, want %d", name, self[name], w)
		}
	}
	if calls["op"] != 2 || calls["decode"] != 2 || calls["naming"] != 1 {
		t.Errorf("calls %v", calls)
	}
	if got := rootTotal(spans); got != 140 {
		t.Errorf("root total %d, want 140", got)
	}
	// Overlapping children are counted once in the parent and once each
	// in their own rows, so only non-overlapping trees sum exactly.
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != 140+5+5 {
		t.Errorf("rows sum to %d", sum)
	}
}

// TestRecorderNesting: spans opened inside another become its children,
// observer spans attach to the innermost open span, and a nil recorder
// records nothing.
func TestRecorderNesting(t *testing.T) {
	r := newRecorder()
	r.op = 3
	root := r.begin("op")
	r.timed("integrate", func() {
		time.Sleep(time.Millisecond)
		r.closed("naming.run", 500*time.Microsecond)
	})
	r.end(root)
	if len(r.spans) != 3 {
		t.Fatalf("%d spans", len(r.spans))
	}
	in, st := r.spans[1], r.spans[2]
	if in.Parent != root || st.Parent != in.ID || st.Op != 3 {
		t.Errorf("parents: %+v %+v", in, st)
	}
	if st.Start < in.Start || st.End > in.End {
		t.Errorf("observer span %+v outside its parent %+v", st, in)
	}
	self, _ := selfTimes(r.spans)
	var sum int64
	for _, v := range self {
		sum += v
	}
	if sum != rootTotal(r.spans) {
		t.Errorf("self times sum to %d, op span is %d", sum, rootTotal(r.spans))
	}
	table := selfTable(r.spans, 1)
	if !strings.Contains(table, "sum of rows") || !strings.Contains(table, "naming.run") {
		t.Errorf("table:\n%s", table)
	}

	var none *recorder
	none.timed("x", func() {})
	none.closed("y", time.Millisecond)

	var buf bytes.Buffer
	if err := encodeSpans(&buf, r.spans); err != nil {
		t.Fatal(err)
	}
	var first span
	if err := json.Unmarshal(bytes.SplitN(buf.Bytes(), []byte("\n"), 2)[0], &first); err != nil || first.Name != "op" {
		t.Errorf("span file line 1: %+v %v", first, err)
	}
}
