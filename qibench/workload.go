package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"qilabel"
	"qilabel/internal/render"
	"qilabel/internal/synth"
)

// spec is a workload's fixed traffic shape.
type spec struct {
	name string
	// openRate is the open-loop phase's fixed arrival rate in ops/s; zero
	// means the workload has no open-loop phase.
	openRate float64
	// clients is the closed-loop client count.
	clients int
	// limit is the latency limit behind slo_ratio.
	limit time.Duration
}

var specs = []spec{
	{name: "read-hot", openRate: 100, clients: 2, limit: 50 * time.Millisecond},
	{name: "integrate-stream", openRate: 25, clients: 2, limit: 250 * time.Millisecond},
	{name: "session-edit", clients: 2, limit: 500 * time.Millisecond},
	{name: "mega-cold", clients: 1, limit: 3 * time.Second},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// sizes scales the generated corpora. fullSizes is the benchmark;
// the smoke test runs toy sizes.
type sizes struct {
	mediumPop, mediumPool int // medium-preset population and pool size
	hotPools              int // seeded medium pools read-hot primes
	warmPools             int // integrate-stream warm-up pools
	megaPop, megaPool     int // mega-preset population and pool size
	megaConcepts          int // 0: the preset's
	sessionSources        int // sources a session grows to
	streamDomains         int // ingest stream: ground-truth domains,
	streamSources         int // forms per domain,
	streamConcepts        int // concepts per domain
	// replay is how many of a workload's ops the traced run replays.
	replay map[string]int
}

var fullSizes = sizes{
	mediumPop: 96, mediumPool: 32, hotPools: 16, warmPools: 16,
	megaPop: 288, megaPool: 192,
	sessionSources: 16,
	streamDomains:  3, streamSources: 24, streamConcepts: 8,
	replay: map[string]int{"read-hot": 400, "integrate-stream": 60, "session-edit": 60, "mega-cold": 3},
}

// read-hot's mix: mixTranslates translates in every mixBlock ops.
const (
	mixBlock      = 20
	mixTranslates = 8
)

// maxIngestRate bounds the ingests per second session-edit's stream is
// sized for.
const maxIngestRate = 40

// Aliases the benchmark registers its generated vocabularies under.
const (
	mediumAlias = "bench-medium"
	megaAlias   = "bench-mega"
)

// refConfig is one pipeline configuration requests run under, and the
// in-process Integrator configuration that must reproduce them.
type refConfig struct {
	lex     *qilabel.Lexicon // nil: the default lexicon
	alias   string           // the lexicon's alias on the daemon ("" for default)
	matcher bool
}

func (c refConfig) config() qilabel.Config {
	return qilabel.Config{Lexicon: c.lex, UseMatcher: c.matcher}
}

// optionsJSON is the request "options" object selecting this configuration.
func (c refConfig) optionsJSON() []byte {
	o := map[string]any{}
	if c.matcher {
		o["matcher"] = true
	}
	if c.alias != "" {
		o["lexicon"] = c.alias
	}
	data, _ := json.Marshal(o)
	return data
}

// body is a request body encoded before the load starts. It is kept as
// fragments so pools that share sources share their encoded bytes.
type body [][]byte

func (b body) size() int64 {
	var n int64
	for _, f := range b {
		n += int64(len(f))
	}
	return n
}

func (b body) reader() io.Reader {
	rs := make([]io.Reader, len(b))
	for i, f := range b {
		rs[i] = bytes.NewReader(f)
	}
	return io.MultiReader(rs...)
}

func (b body) bytes() []byte {
	out := make([]byte, 0, b.size())
	for _, f := range b {
		out = append(out, f...)
	}
	return out
}

func jsonBody(v any) body {
	data, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("qibench: encoding request body: %v", err))
	}
	return body{data}
}

// pool is one integrate request's source set.
type pool struct {
	domain string // builtin corpus name, "" for a synthesized pool
	trees  []*qilabel.Tree
	ref    *refConfig
	body   body
}

type opKind int

const (
	opIntegrate opKind = iota // POST /v1/integrate of a pool
	opTranslate               // POST /v1/translate against a primed pool's key
	opEdit                    // one session delta, then its result and a translate
	opIngest                  // POST /v1/ingest of a rendered form
)

func (k opKind) String() string {
	return [...]string{"integrate", "translate", "edit", "ingest"}[k]
}

// op is one client operation. Its latency is the whole operation's.
type op struct {
	id    int
	kind  opKind
	pool  int               // integrate, translate
	query map[string]string // translate
	body  body
	due   time.Duration // open loop: offset from the phase start
	edit  *editStep     // edit
}

// editStep is one step of an editor's script. Tree IDs index
// workload.trees: the population, then its perturbed copies.
type editStep struct {
	act   string // "add", "update" or "remove"
	tree  int    // added, replaced or removed tree
	repl  int    // update: the replacement tree
	open  bool   // create the session first
	close bool   // delete the session afterwards
	after []int  // the session's trees after the step
}

// lexUpload is a vocabulary PUT to /v1/lexicons/<alias> during set-up.
type lexUpload struct {
	alias string
	body  body
}

// streamForm is one rendered form of the ingest stream.
type streamForm struct {
	domain int // ground-truth domain
	iface  string
	html   string
	body   body
}

// workload is everything one run sends, generated from the seed before
// the daemon starts.
type workload struct {
	spec
	seed  uint64
	sizes sizes

	lexicons []lexUpload
	pools    []*pool
	golden   map[string]goldenFile // builtin pools' expected output

	setup   []*op   // priming and warm-up, run after every launch
	open    []*op   // open-loop schedule, by due time
	closed  []*op   // closed-loop ops, consumed in order
	editors [][]*op // session-edit: one script per client

	// session-edit
	sessionRef *refConfig
	trees      []*qilabel.Tree
	treeHash   []string
	treeBody   []body // {"source": tree}
	createBody body
	forms      []*streamForm
}

// goldenFile mirrors testdata/golden/<domain>.json.
type goldenFile struct {
	Domain string            `json:"domain"`
	Key    string            `json:"key"`
	Class  string            `json:"class"`
	Labels map[string]string `json:"labels"`
	Tree   string            `json:"tree"`
}

func goldenPath(root, domain string) string {
	slug := strings.ReplaceAll(strings.ToLower(domain), " ", "-")
	return filepath.Join(root, "testdata", "golden", slug+".json")
}

// buildWorkload generates a workload's corpora, bodies and schedule.
// root is the repository checkout holding testdata/golden.
func buildWorkload(sp spec, seed uint64, sz sizes, seconds float64, root string) (*workload, error) {
	wl := &workload{spec: sp, seed: seed, sizes: sz}
	var err error
	switch sp.name {
	case "read-hot":
		err = wl.buildReadHot(seconds, root)
	case "integrate-stream":
		err = wl.buildIntegrateStream(seconds)
	case "session-edit":
		err = wl.buildSessionEdit(seconds)
	case "mega-cold":
		err = wl.buildMegaCold(seconds)
	default:
		err = fmt.Errorf("unknown workload %q", sp.name)
	}
	if err != nil {
		return nil, err
	}
	for i, o := range wl.setup {
		o.id = -1 - i
	}
	id := 0
	for _, o := range wl.open {
		o.id, id = id, id+1
	}
	for _, o := range wl.closed {
		o.id, id = id, id+1
	}
	for _, script := range wl.editors {
		for _, o := range script {
			o.id, id = id, id+1
		}
	}
	return wl, nil
}

// rng derives an independent stream for one purpose from the run seed.
func (wl *workload) rng(purpose uint64) *rand.Rand {
	return rand.New(rand.NewPCG(wl.seed, purpose))
}

// population generates a preset corpus of n sources and registers its
// vocabulary for upload under alias. It keeps the preset's own seed: the
// run seed picks the pools, schedules and queries drawn from it, so runs
// differ in what they send, not in how costly the vocabulary is.
func (wl *workload) population(preset string, n, concepts int, alias string) ([]*qilabel.Tree, *qilabel.Lexicon, synth.Config, error) {
	cfg, err := synth.Preset(preset)
	if err != nil {
		return nil, nil, cfg, err
	}
	cfg.Sources = n
	if concepts > 0 {
		cfg.Concepts = concepts
	}
	trees, lex, err := synth.GenerateWithLexicon(cfg)
	if err != nil {
		return nil, nil, cfg, err
	}
	art, err := lex.EncodeArtifact()
	if err != nil {
		return nil, nil, cfg, err
	}
	wl.lexicons = append(wl.lexicons, lexUpload{alias: alias, body: body{art}})
	if lex.VersionID() == qilabel.DefaultLexicon().VersionID() {
		// The server resolves a selection of the default lexicon's
		// content to the default itself, whose fingerprint reads
		// "default"; the in-process reference must do the same.
		lex = nil
	}
	return trees, lex, cfg, nil
}

// fragments encodes each tree once, so pool bodies can share them.
func fragments(trees []*qilabel.Tree) ([][]byte, error) {
	out := make([][]byte, len(trees))
	for i, t := range trees {
		data, err := json.Marshal(t)
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

// synthPool assembles the integrate body of a population subset.
func synthPool(trees []*qilabel.Tree, frags [][]byte, idx []int, ref *refConfig) *pool {
	p := &pool{ref: ref, trees: make([]*qilabel.Tree, len(idx))}
	p.body = append(p.body, []byte(`{"sources":[`))
	for k, i := range idx {
		if k > 0 {
			p.body = append(p.body, []byte(","))
		}
		p.body = append(p.body, frags[i])
		p.trees[k] = trees[i]
	}
	p.body = append(p.body, []byte(`],"options":`), ref.optionsJSON(), []byte("}"))
	return p
}

// subsets draws count distinct k-subsets of [0,n), each sorted.
func subsets(r *rand.Rand, n, k, count int) [][]int {
	seen := make(map[string]bool)
	var out [][]int
	for len(out) < count {
		idx := r.Perm(n)[:k]
		sort.Ints(idx)
		key := fmt.Sprint(idx)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, idx)
	}
	return out
}

// phaseOps bounds how many closed-loop ops a phase of d seconds may need
// at the given ceiling throughput.
func phaseOps(d, perSecond float64) int {
	return max(int(d*perSecond), 16)
}

// phases splits the measured seconds: half open loop and half closed
// loop when the workload has an open loop, otherwise all closed loop.
func (sp spec) phases(seconds float64) (open, closed float64) {
	if sp.openRate > 0 {
		return seconds / 2, seconds / 2
	}
	return 0, seconds
}

func (wl *workload) buildReadHot(seconds float64, root string) error {
	trees, lex, _, err := wl.population("medium", wl.sizes.mediumPop, 0, mediumAlias)
	if err != nil {
		return err
	}
	ref := &refConfig{lex: lex, alias: mediumAlias}
	def := &refConfig{}
	wl.golden = make(map[string]goldenFile)
	for _, name := range qilabel.BuiltinDomains() {
		data, err := os.ReadFile(goldenPath(root, name))
		if err != nil {
			return fmt.Errorf("golden output for %s: %w", name, err)
		}
		var g goldenFile
		if err := json.Unmarshal(data, &g); err != nil {
			return fmt.Errorf("golden output for %s: %w", name, err)
		}
		wl.golden[name] = g
		src, err := qilabel.BuiltinDomain(name)
		if err != nil {
			return err
		}
		wl.pools = append(wl.pools, &pool{domain: name, trees: src, ref: def, body: jsonBody(map[string]string{"domain": name})})
	}
	frags, err := fragments(trees)
	if err != nil {
		return err
	}
	for _, idx := range subsets(wl.rng(2), len(trees), wl.sizes.mediumPool, wl.sizes.hotPools) {
		wl.pools = append(wl.pools, synthPool(trees, frags, idx, ref))
	}
	keys := make([]string, len(wl.pools))
	for i, p := range wl.pools {
		ig, err := qilabel.NewIntegrator(p.ref.config())
		if err != nil {
			return err
		}
		keys[i] = ig.CacheKey(p.trees)
		wl.setup = append(wl.setup, &op{kind: opIntegrate, pool: i, body: p.body})
	}

	// Every block of mixBlock ops holds mixTranslates translates against
	// any primed key and inline re-submissions of the synthesized pools
	// for the rest, in seeded order. The fixed count keeps the median
	// inside the re-submission class instead of on the class boundary.
	r := wl.rng(3)
	builtins := len(qilabel.BuiltinDomains())
	var pending []bool
	mix := func() *op {
		if len(pending) == 0 {
			pending = make([]bool, mixBlock)
			for k := range mixTranslates {
				pending[k] = true
			}
			r.Shuffle(mixBlock, func(a, b int) { pending[a], pending[b] = pending[b], pending[a] })
		}
		translate := pending[0]
		pending = pending[1:]
		if !translate {
			i := builtins + r.IntN(len(wl.pools)-builtins)
			return &op{kind: opIntegrate, pool: i, body: wl.pools[i].body}
		}
		i := r.IntN(len(wl.pools))
		q := randomQuery(r, wl.pools[i].trees)
		return &op{kind: opTranslate, pool: i, query: q,
			body: jsonBody(map[string]any{"key": keys[i], "query": q})}
	}
	openSec, closedSec := wl.phases(seconds)
	n := int(wl.openRate * openSec)
	for k := 0; k < n; k++ {
		o := mix()
		o.due = time.Duration(float64(k) / wl.openRate * float64(time.Second))
		wl.open = append(wl.open, o)
	}
	for range phaseOps(closedSec, 4000) {
		wl.closed = append(wl.closed, mix())
	}
	return nil
}

// randomQuery assigns values to one to three of the pool's clusters,
// preferring a predefined instance as the value.
func randomQuery(r *rand.Rand, trees []*qilabel.Tree) map[string]string {
	values := make(map[string][]string)
	for _, t := range trees {
		for _, l := range t.Leaves() {
			for _, c := range append([]string{l.Cluster}, l.MultiClusters...) {
				if c != "" {
					values[c] = append(values[c], l.Instances...)
				}
			}
		}
	}
	clusters := make([]string, 0, len(values))
	for c := range values {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	q := make(map[string]string)
	for range 1 + r.IntN(3) {
		c := clusters[r.IntN(len(clusters))]
		if v := values[c]; len(v) > 0 {
			q[c] = v[r.IntN(len(v))]
		} else {
			q[c] = fmt.Sprintf("v%d", r.IntN(1000))
		}
	}
	return q
}

func (wl *workload) buildIntegrateStream(seconds float64) error {
	trees, lex, _, err := wl.population("medium", wl.sizes.mediumPop, 0, mediumAlias)
	if err != nil {
		return err
	}
	ref := &refConfig{lex: lex, alias: mediumAlias, matcher: true}
	frags, err := fragments(trees)
	if err != nil {
		return err
	}
	openSec, closedSec := wl.phases(seconds)
	nOpen := int(wl.openRate * openSec)
	nClosed := phaseOps(closedSec, 400)
	all := subsets(wl.rng(2), len(trees), wl.sizes.mediumPool, wl.sizes.warmPools+nOpen+nClosed)
	for _, idx := range all {
		wl.pools = append(wl.pools, synthPool(trees, frags, idx, ref))
	}
	next := 0
	take := func() *op {
		o := &op{kind: opIntegrate, pool: next, body: wl.pools[next].body}
		next++
		return o
	}
	for range wl.sizes.warmPools {
		wl.setup = append(wl.setup, take())
	}
	r := wl.rng(3)
	for k := 0; k < nOpen; k++ {
		o := take()
		o.due = time.Duration(float64(k) / wl.openRate * float64(time.Second))
		wl.open = append(wl.open, o)
		if r.IntN(10) == 0 {
			// The same pool again at the same instant: the copy coalesces.
			dup := *o
			wl.open = append(wl.open, &dup)
		}
	}
	for range nClosed {
		wl.closed = append(wl.closed, take())
	}
	return nil
}

func (wl *workload) buildMegaCold(seconds float64) error {
	trees, lex, _, err := wl.population("mega", wl.sizes.megaPop, wl.sizes.megaConcepts, megaAlias)
	if err != nil {
		return err
	}
	ref := &refConfig{lex: lex, alias: megaAlias, matcher: true}
	frags, err := fragments(trees)
	if err != nil {
		return err
	}
	n := 1 + phaseOps(seconds, 6)
	for _, idx := range subsets(wl.rng(2), len(trees), wl.sizes.megaPool, n) {
		wl.pools = append(wl.pools, synthPool(trees, frags, idx, ref))
	}
	wl.setup = append(wl.setup, &op{kind: opIntegrate, pool: 0, body: wl.pools[0].body})
	for i := 1; i < n; i++ {
		wl.closed = append(wl.closed, &op{kind: opIntegrate, pool: i, body: wl.pools[i].body})
	}
	return nil
}

func (wl *workload) buildSessionEdit(seconds float64) error {
	pop, lex, cfg, err := wl.population("medium", wl.sizes.mediumPop, 0, mediumAlias)
	if err != nil {
		return err
	}
	wl.sessionRef = &refConfig{lex: lex, alias: mediumAlias, matcher: true}
	perturbed, _, err := synth.SynonymRelabel(cfg, pop, wl.rng(2).Uint64())
	if err != nil {
		return err
	}
	n := len(pop)
	wl.trees = append(append([]*qilabel.Tree(nil), pop...), perturbed...)
	for _, t := range wl.trees {
		frag, err := json.Marshal(t)
		if err != nil {
			return err
		}
		wl.treeHash = append(wl.treeHash, t.CanonicalHash())
		wl.treeBody = append(wl.treeBody, body{[]byte(`{"source":`), frag, []byte("}")})
	}
	// Only sources the relabeling changed can be replaced by their copy.
	var changed []bool
	for i := range n {
		changed = append(changed, wl.treeHash[i] != wl.treeHash[n+i])
	}
	wl.createBody = body{[]byte(`{"options":`), wl.sessionRef.optionsJSON(), []byte("}")}

	// The stream is long enough that the timed phase does not run out of
	// new forms at up to maxIngestRate ingests per second.
	perDomain := max(wl.sizes.streamSources, int(seconds*maxIngestRate)/wl.sizes.streamDomains)
	stream, _, err := synth.Stream(synth.StreamConfig{
		Seed:    wl.rng(4).Uint64(),
		Domains: wl.sizes.streamDomains,
		Base: synth.Config{
			Domain:   "crawl",
			Sources:  perDomain,
			Concepts: wl.sizes.streamConcepts,
			Perturb:  synth.Perturb{SynonymSwap: 0.3, NumberVary: 0.15, Noise: 0.15, Dropout: 0.1, Reorder: 0.2},
		},
	})
	if err != nil {
		return err
	}
	for _, f := range stream {
		html := render.HTML(f.Tree, render.Options{Title: f.Tree.Interface, Compact: true})
		wl.forms = append(wl.forms, &streamForm{domain: f.Domain, iface: f.Tree.Interface, html: html,
			body: jsonBody(map[string]string{"html": html, "interface": f.Tree.Interface})})
	}

	// The warm-up session grows to half a session from perturbed copies,
	// which the scripts add only through updates.
	var warm []int
	for k := range wl.sizes.sessionSources / 2 {
		warm = append(warm, n+k)
		wl.setup = append(wl.setup, &op{kind: opEdit, edit: &editStep{act: "add", tree: n + k, open: k == 0,
			close: k == wl.sizes.sessionSources/2-1, after: append([]int(nil), warm...)}})
	}

	steps := phaseOps(seconds, 200)
	for e := range wl.clients {
		wl.editors = append(wl.editors, wl.script(wl.rng(10+uint64(e)), steps, n, changed))
	}
	return nil
}

// script generates one editor's steps: sessions grow one source at a
// time to sessionSources, replace one source with its perturbed copy,
// remove one and close. One write in four is a crawler ingest instead.
func (wl *workload) script(r *rand.Rand, steps, n int, changed []bool) []*op {
	var out []*op
	for len(out) < steps {
		var cur []int
		present := make(map[int]bool)
		var acts []*editStep
		for k := range wl.sizes.sessionSources {
			t := r.IntN(n)
			for present[t] {
				t = r.IntN(n)
			}
			present[t] = true
			acts = append(acts, &editStep{act: "add", tree: t, open: k == 0})
		}
		acts = append(acts, &editStep{act: "update"}, &editStep{act: "remove", close: true})
		for _, st := range acts {
			for r.IntN(4) == 0 {
				out = append(out, &op{kind: opIngest})
			}
			switch st.act {
			case "add":
				cur = append(cur, st.tree)
			case "update":
				var cands []int
				for i, t := range cur {
					if t < n && changed[t] {
						cands = append(cands, i)
					}
				}
				if len(cands) == 0 {
					continue
				}
				i := cands[r.IntN(len(cands))]
				st.tree, st.repl = cur[i], cur[i]+n
				cur[i] = st.repl
			case "remove":
				i := r.IntN(len(cur))
				st.tree = cur[i]
				cur = append(cur[:i:i], cur[i+1:]...)
			}
			st.after = append([]int(nil), cur...)
			out = append(out, &op{kind: opEdit, edit: st})
		}
	}
	return out
}
