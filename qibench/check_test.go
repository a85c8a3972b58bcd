package main

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"sync/atomic"
	"testing"

	"qilabel/internal/server"
)

// tamper rewrites one field of a JSON response body.
func tamper(t *testing.T, body []byte, edit func(map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	edit(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func withBody(o *outcome, body []byte) *outcome {
	c := *o
	c.calls = append([]call(nil), o.calls...)
	c.calls[0].body = body
	return &c
}

// TestCheckRejectsTamperedResponses: real responses from an in-process
// server pass the checks, and the same responses with one field changed
// fail them — synthesized pools against the in-process reference,
// builtin domains against testdata/golden, and translations.
func TestCheckRejectsTamperedResponses(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := specByName("read-hot")
	wl, err := buildWorkload(sp, 3, toySizes, 1, root)
	if err != nil {
		t.Fatal(err)
	}
	tr := &handlerTransport{h: server.New(server.Config{}).Handler()}
	primed, err := setUp(tr, wl)
	if err != nil {
		t.Fatal(err)
	}
	c := &client{t: tr, wl: wl, forms: new(atomic.Int64)}
	var synth, builtin, translate *outcome
	ran := primed
	for _, o := range wl.closed[:40] {
		ran = append(ran, c.run(o, &editorState{}))
	}
	for _, out := range ran {
		o := out.op
		switch {
		case o.kind == opTranslate && translate == nil:
			translate = out
		case o.kind == opIntegrate && wl.pools[o.pool].domain == "" && synth == nil:
			synth = out
		case o.kind == opIntegrate && wl.pools[o.pool].domain != "" && builtin == nil:
			builtin = out
		}
	}
	if synth == nil || builtin == nil || translate == nil {
		t.Fatal("schedule lacks an op kind")
	}
	chk := newChecker(wl)
	if err := chk.prepare([]*outcome{synth, builtin, translate}, 2); err != nil {
		t.Fatal(err)
	}
	for _, o := range []*outcome{synth, builtin, translate} {
		if err := chk.check(o); err != nil {
			t.Fatalf("untampered %s rejected: %v", o.op.kind, err)
		}
	}

	relabel := func(m map[string]any) {
		for k := range m["labels"].(map[string]any) {
			m["labels"].(map[string]any)[k] = "Tampered"
			break
		}
	}
	cases := map[string]*outcome{
		"synth label":    withBody(synth, tamper(t, synth.calls[0].body, relabel)),
		"synth tree":     withBody(synth, tamper(t, synth.calls[0].body, func(m map[string]any) { m["text"] = "x" })),
		"synth report":   withBody(synth, tamper(t, synth.calls[0].body, func(m map[string]any) { m["report"].(map[string]any)["fldAcc"] = 0.5 })),
		"builtin label":  withBody(builtin, tamper(t, builtin.calls[0].body, relabel)),
		"builtin class":  withBody(builtin, tamper(t, builtin.calls[0].body, func(m map[string]any) { m["class"] = "consistent-ish" })),
		"translate key":  withBody(translate, tamper(t, translate.calls[0].body, func(m map[string]any) { m["key"] = "0" })),
		"translate subs": withBody(translate, tamper(t, translate.calls[0].body, func(m map[string]any) { m["subQueries"] = []any{} })),
		"status":         {op: synth.op, calls: synth.calls, err: errors.New("POST /v1/integrate: status 500")},
	}
	for name, o := range cases {
		if err := chk.check(o); err == nil {
			t.Errorf("%s: tampered response accepted", name)
		}
	}
}
