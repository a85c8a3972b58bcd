package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"qilabel"
	"qilabel/internal/discover"
	"qilabel/internal/server"
)

// replayOp is one operation of the traced replay and the editor that
// sends it.
type replayOp struct {
	op     *op
	editor int
}

// replayOps picks the first n ops of the workload's schedule; session
// editors take turns.
func replayOps(wl *workload, n int) []replayOp {
	var out []replayOp
	if len(wl.editors) > 0 {
		for k := 0; len(out) < n; k++ {
			for e, script := range wl.editors {
				if len(out) < n {
					out = append(out, replayOp{op: script[k%len(script)], editor: e})
				}
			}
		}
		return out
	}
	for _, o := range append(append([]*op(nil), wl.open...), wl.closed...) {
		if len(out) == n {
			break
		}
		out = append(out, replayOp{op: o})
	}
	return out
}

// handlerReplay is the first replay: every call goes through a fresh
// server's Handler().ServeHTTP with a response recorder.
type handlerReplay struct {
	spans   []span
	mem     runtime.MemStats // deltas over the replayed ops
	handler int64            // summed server.handler span time
}

func runHandlerReplay(wl *workload, ops []replayOp) (*handlerReplay, error) {
	tr := &handlerTransport{h: server.New(server.Config{}).Handler()}
	c := &client{t: tr, wl: wl, forms: new(atomic.Int64)}
	if _, err := setUp(tr, wl); err != nil {
		return nil, fmt.Errorf("handler replay set-up: %w", err)
	}
	rec := newRecorder()
	tr.rec = rec
	eds := make([]*editorState, max(len(wl.editors), 1))
	for i := range eds {
		eds[i] = &editorState{}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, ro := range ops {
		rec.op = i
		root := rec.begin("op")
		out := c.run(ro.op, eds[ro.editor])
		rec.end(root)
		if out.err != nil {
			return nil, fmt.Errorf("handler replay op %d (%s): %w", i, ro.op.kind, out.err)
		}
	}
	r := &handlerReplay{spans: rec.spans}
	runtime.ReadMemStats(&after)
	r.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	r.mem.Mallocs = after.Mallocs - before.Mallocs
	r.mem.NumGC = after.NumGC - before.NumGC
	for _, s := range rec.spans {
		if s.Name == "server.handler" {
			r.handler += s.dur()
		}
	}
	return r, nil
}

// stageSpans names the pipeline's observer stages as spans.
var stageSpans = map[string]string{
	"validate": "qilabel.validate",
	"match":    "match.assign",
	"merge":    "merge.merge",
	"naming":   "naming.run",
}

// library is the second replay: the library calls the handlers make,
// each inside a span, against fresh state.
type library struct {
	wl       *workload
	rec      *recorder
	lexicons map[string]*qilabel.Lexicon // alias → decoded upload
	igs      map[libOptions]*qilabel.Integrator
	results  map[string]*qilabel.Result // the result cache, by key
	engine   *discover.Engine
	sessions []*qilabel.Session // per editor
	forms    int
}

// libOptions mirrors a request's options object.
type libOptions struct {
	Matcher bool   `json:"matcher"`
	Lexicon string `json:"lexicon"`
}

func newLibrary(wl *workload, rec *recorder) (*library, error) {
	lib := &library{wl: wl, rec: rec, lexicons: make(map[string]*qilabel.Lexicon),
		igs: make(map[libOptions]*qilabel.Integrator), results: make(map[string]*qilabel.Result),
		sessions: make([]*qilabel.Session, max(len(wl.editors), 1))}
	for _, up := range wl.lexicons {
		lex, _, err := qilabel.DecodeLexiconArtifact(up.body.bytes())
		if err != nil {
			return nil, err
		}
		if lex.VersionID() == qilabel.DefaultLexicon().VersionID() {
			lex = nil // as the server resolves it: the default itself
		}
		lib.lexicons[up.alias] = lex
	}
	if len(wl.forms) > 0 {
		ig, err := lib.integrator(libOptions{Matcher: true})
		if err != nil {
			return nil, err
		}
		if lib.engine, err = discover.New(discover.Config{Integrator: ig}); err != nil {
			return nil, err
		}
	}
	return lib, nil
}

// integrator returns the Integrator for one options combination,
// created on first use as the server does.
func (lib *library) integrator(o libOptions) (*qilabel.Integrator, error) {
	if ig, ok := lib.igs[o]; ok {
		return ig, nil
	}
	cfg := qilabel.Config{UseMatcher: o.Matcher, Lexicon: lib.lexicons[o.Lexicon]}
	cfg.Observer = func(e qilabel.StageEvent) { lib.rec.closed(stageSpans[e.Stage], e.Duration) }
	ig, err := qilabel.NewIntegrator(cfg)
	if err != nil {
		return nil, err
	}
	lib.igs[o] = ig
	return ig, nil
}

func (lib *library) decode(b []byte, v any) error {
	var err error
	lib.rec.timed("schema.decode", func() { err = json.Unmarshal(b, v) })
	return err
}

// complete caches a computed result with its report, as the server does
// for every cold integration.
func (lib *library) complete(key, domain string, sources []*qilabel.Tree, res *qilabel.Result) {
	lib.rec.timed("metrics.report", func() { res.Report(domain, sources) })
	lib.results[key] = res
}

func (lib *library) run(o *op, editor int) error {
	ctx := context.Background()
	switch o.kind {
	case opIntegrate:
		var req struct {
			Sources []*qilabel.Tree `json:"sources"`
			Domain  string          `json:"domain"`
			Options libOptions      `json:"options"`
		}
		if err := lib.decode(o.body.bytes(), &req); err != nil {
			return err
		}
		sources := req.Sources
		if req.Domain != "" {
			var err error
			lib.rec.timed("dataset.builtin", func() { sources, err = qilabel.BuiltinDomain(req.Domain) })
			if err != nil {
				return err
			}
		}
		ig, err := lib.integrator(req.Options)
		if err != nil {
			return err
		}
		var key string
		lib.rec.timed("qilabel.cachekey", func() { key = ig.CacheKey(sources) })
		if lib.results[key] != nil {
			return nil
		}
		var res *qilabel.Result
		lib.rec.timed("qilabel.integrate", func() { res, err = ig.IntegrateContext(ctx, sources) })
		if err != nil {
			return err
		}
		lib.complete(key, req.Domain, sources, res)
	case opTranslate:
		return lib.translate(o.body.bytes())
	case opIngest:
		f := lib.wl.forms[lib.forms%len(lib.wl.forms)]
		lib.forms++
		return lib.ingest(f.body.bytes())
	case opEdit:
		return lib.edit(o.edit, editor)
	}
	return nil
}

func (lib *library) translate(data []byte) error {
	var req struct {
		Key   string            `json:"key"`
		Query map[string]string `json:"query"`
	}
	if err := lib.decode(data, &req); err != nil {
		return err
	}
	res := lib.results[req.Key]
	if res == nil {
		return fmt.Errorf("translate: unknown key %s", req.Key)
	}
	lib.rec.timed("translate.translate", func() { res.Translate(req.Query) })
	return nil
}

func (lib *library) ingest(data []byte) error {
	var req struct {
		HTML      string `json:"html"`
		Interface string `json:"interface"`
	}
	if err := lib.decode(data, &req); err != nil {
		return err
	}
	var forms []*qilabel.Tree
	lib.rec.timed("extract.forms", func() { forms = qilabel.ExtractForms([]byte(req.HTML), req.Interface) })
	for _, t := range forms {
		if err := t.Validate(); err != nil {
			return err
		}
		var a *discover.Assignment
		var err error
		lib.rec.timed("discover.ingest", func() { a, err = lib.engine.Ingest(context.Background(), t) })
		if err != nil {
			return err
		}
		if a.Duplicate {
			continue
		}
		var res *qilabel.Result
		var key string
		var sources []*qilabel.Tree
		lib.rec.timed("discover.result", func() { res, key, sources, err = lib.engine.Result(a.Domain) })
		if err != nil && !errors.Is(err, discover.ErrUnknownDomain) {
			return err
		}
		if err == nil && lib.results[key] == nil {
			lib.complete(key, "", sources, res)
		}
	}
	return nil
}

func (lib *library) edit(st *editStep, editor int) error {
	ctx := context.Background()
	opts := libOptions{Matcher: true, Lexicon: mediumAlias}
	if st.open {
		ig, err := lib.integrator(opts)
		if err != nil {
			return err
		}
		lib.sessions[editor] = ig.NewSession()
	}
	sess := lib.sessions[editor]
	var err error
	switch st.act {
	case "add", "update":
		var req struct {
			Source *qilabel.Tree `json:"source"`
		}
		t := st.tree
		if st.act == "update" {
			t = st.repl
		}
		if err := lib.decode(lib.wl.treeBody[t].bytes(), &req); err != nil {
			return err
		}
		if st.act == "add" {
			lib.rec.timed("delta.add", func() { _, err = sess.AddSource(ctx, req.Source) })
		} else {
			lib.rec.timed("delta.update", func() { _, err = sess.UpdateSource(ctx, lib.wl.treeHash[st.tree], req.Source) })
		}
	case "remove":
		lib.rec.timed("delta.remove", func() { err = sess.RemoveSource(ctx, lib.wl.treeHash[st.tree]) })
	}
	if err != nil {
		return err
	}
	lib.rec.timed("qilabel.cachekey", func() { sess.CacheKey() })

	var res *qilabel.Result
	lib.rec.timed("delta.result", func() { res, err = sess.Result() })
	if err != nil {
		return err
	}
	var key string
	lib.rec.timed("qilabel.cachekey", func() { key = sess.CacheKey() })
	if lib.results[key] == nil {
		lib.complete(key, "", sess.Sources(), res)
	}
	if err := lib.translate(translateBody(key, res.Labels)); err != nil {
		return err
	}
	if st.close {
		lib.sessions[editor] = nil
	}
	return nil
}

// libraryReplay runs the set-up ops untimed, then the replayed ops each
// under an op span; with rec nil nothing is recorded.
func libraryReplay(wl *workload, ops []replayOp, rec *recorder) (time.Duration, error) {
	lib, err := newLibrary(wl, rec)
	if err != nil {
		return 0, err
	}
	for _, o := range wl.setup {
		if err := lib.run(o, 0); err != nil {
			return 0, fmt.Errorf("library replay set-up: %w", err)
		}
	}
	if rec != nil {
		rec.spans = rec.spans[:0]
	}
	start := time.Now()
	for i, ro := range ops {
		var root int
		if rec != nil {
			rec.op = i
			root = rec.begin("op")
		}
		if err := lib.run(ro.op, ro.editor); err != nil {
			return 0, fmt.Errorf("library replay op %d (%s): %w", i, ro.op.kind, err)
		}
		rec.end(root)
	}
	return time.Since(start), nil
}
