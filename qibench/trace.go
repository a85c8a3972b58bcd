package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call recorded by the benchmark around a layer
// boundary. Spans of one operation share Op; Parent is the ID of the
// enclosing span, -1 for the operation's root.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one single-goroutine replay. A nil
// recorder records nothing, which is how the untraced replay runs.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span under the innermost open one and returns its ID.
func (r *recorder) begin(name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: id, Parent: parent, Start: r.now()})
	r.stack = append(r.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// closed records a span that has already ended, under the innermost open
// span: the pipeline's stage observer reports a duration at stage end.
func (r *recorder) closed(name string, d time.Duration) {
	if r == nil {
		return
	}
	end := r.now()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	r.spans = append(r.spans, span{Name: name, Op: r.op, ID: len(r.spans), Parent: parent, Start: end - int64(d), End: end})
}

// timed runs fn inside a span.
func (r *recorder) timed(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus the part of its interval its children cover) and the
// number of spans.
func selfTimes(spans []span) (self map[string]int64, calls map[string]int) {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]int64)
	calls = make(map[string]int)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
		calls[s.Name]++
	}
	return self, calls
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// rootTotal sums the durations of the operations' root spans.
func rootTotal(spans []span) int64 {
	var t int64
	for _, s := range spans {
		if s.Parent < 0 {
			t += s.dur()
		}
	}
	return t
}

// selfTable renders the self-time rows, largest first; the rows sum to
// the total of the root spans.
func selfTable(spans []span, ops int) string {
	self, calls := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	total := rootTotal(spans)
	var b strings.Builder
	fmt.Fprintf(&b, "  %-22s %12s %7s %8s\n", "span", "self ms/op", "share", "calls")
	var sum int64
	for _, n := range names {
		sum += self[n]
		share := 0.0
		if total > 0 {
			share = 100 * float64(self[n]) / float64(total)
		}
		fmt.Fprintf(&b, "  %-22s %12.4f %6.2f%% %8d\n", n, perOp(self[n], ops), share, calls[n])
	}
	fmt.Fprintf(&b, "  %-22s %12.4f %7s %8d\n", "sum of rows", perOp(sum, ops), "", ops)
	fmt.Fprintf(&b, "  %-22s %12.4f\n", "op span", perOp(total, ops))
	return b.String()
}

func perOp(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(ops)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}
