package discover

import (
	"context"
	"testing"

	"qilabel"
	"qilabel/internal/extract"
)

// FuzzIngest drives the whole online pipeline with arbitrary bytes: HTML
// extraction, similarity assignment and the per-domain integration. No
// input may panic or corrupt engine invariants — every accepted ingest
// must land in a resolvable domain whose listing stays self-consistent.
// Crashers live in testdata/fuzz/FuzzIngest.
func FuzzIngest(f *testing.F) {
	for _, seed := range []string{
		"<form><label>Passenger</label><input name=p>" +
			"<label>Destination</label><input name=d></form>",
		"<form><label>Author</label><input name=a></form>" +
			"<form><label>Traveler</label><input name=t></form>",
		"<form><fieldset><legend>Trip</legend><select name=s>" +
			"<option>one-way<option>round-trip</select></fieldset></form>",
		"<form><label>L<input></label></form><form><input type=text></form>",
		"<form", "<<>>", "",
	} {
		f.Add(seed)
	}
	ig, err := qilabel.NewIntegrator(qilabel.Config{UseMatcher: true})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, html string) {
		e, err := New(Config{Integrator: ig, MaxDomains: 8})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, tree := range extract.Forms(html, "fuzz") {
			a, err := e.Ingest(ctx, tree)
			if err != nil {
				// Rejected forms must leave no trace.
				continue
			}
			if a.Domain == "" || a.Sources < 1 || a.Domains < 1 {
				t.Fatalf("accepted ingest with inconsistent assignment: %+v", a)
			}
			if _, err := e.Domain(a.Domain); err != nil {
				t.Fatalf("assigned domain %q not resolvable: %v", a.Domain, err)
			}
			// Immediate re-ingest of the same form is always a duplicate.
			dup, err := e.Ingest(ctx, tree)
			if err != nil || !dup.Duplicate || dup.Domain != a.Domain {
				t.Fatalf("re-ingest not a stable no-op: %+v, %v", dup, err)
			}
		}
		infos, err := e.Domains()
		if err != nil {
			t.Fatalf("Domains(): %v", err)
		}
		forms := 0
		for _, info := range infos {
			if info.Sources != len(info.Forms) {
				t.Fatalf("domain %s: Sources=%d but %d forms", info.ID, info.Sources, len(info.Forms))
			}
			forms += info.Sources
		}
		if st := e.Stats(); st.Forms != forms || st.Domains != len(infos) {
			t.Fatalf("stats %+v disagree with listing (%d domains, %d forms)", st, len(infos), forms)
		}
	})
}
