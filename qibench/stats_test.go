package main

import (
	"strings"
	"testing"
	"time"
)

func durations(n int) []time.Duration {
	d := make([]time.Duration, n)
	for i := range d {
		d[i] = time.Duration(i+1) * time.Millisecond
	}
	return d
}

// TestTailRule: the tail is the highest rung with at least ten samples
// beyond it, and falls back to a flagged median below twenty samples.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n        int
		p        float64
		beyond   int
		value    time.Duration
		resolved bool
	}{
		{n: 20, p: 50, beyond: 10, value: 10 * time.Millisecond, resolved: true},
		{n: 99, p: 50, beyond: 49, value: 50 * time.Millisecond, resolved: true},
		{n: 100, p: 90, beyond: 10, value: 90 * time.Millisecond, resolved: true},
		{n: 199, p: 90, beyond: 19, value: 180 * time.Millisecond, resolved: true},
		{n: 200, p: 95, beyond: 10, value: 190 * time.Millisecond, resolved: true},
		{n: 500, p: 95, beyond: 25, value: 475 * time.Millisecond, resolved: true},
		{n: 1000, p: 99, beyond: 10, value: 990 * time.Millisecond, resolved: true},
		{n: 10000, p: 99.9, beyond: 10, value: 9990 * time.Millisecond, resolved: true},
		{n: 15, p: 50, beyond: 7, value: 8 * time.Millisecond, resolved: false},
	}
	for _, c := range cases {
		got := tailOf(durations(c.n))
		if got.P != c.p || got.Beyond != c.beyond || got.Value != c.value || got.Resolved != c.resolved || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g value %v with %d beyond (resolved %v)", c.n, got, c.p, c.value, c.beyond, c.resolved)
		}
	}
	if s := tailOf(durations(500)).String(); s != "p95, 25 of 500 samples beyond" {
		t.Errorf("description %q", s)
	}
	if s := tailOf(durations(15)).String(); !strings.Contains(s, "so the median") {
		t.Errorf("unresolved tail not flagged: %q", s)
	}
	if got := tailOf(nil); got.Value != 0 || got.Resolved {
		t.Errorf("empty sample: %+v", got)
	}
}

// TestRatioPrintsBase: every ratio carries its numerator and base.
func TestRatioPrintsBase(t *testing.T) {
	if s := (ratio{3, 4}).String(); s != "0.7500 (3 of 4)" {
		t.Errorf("got %q", s)
	}
	if r := (ratio{0, 0}); r.Value() != 0 || r.String() != "n/a (0 of 0)" {
		t.Errorf("empty base: %v %q", r.Value(), r.String())
	}
}
