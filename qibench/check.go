package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"

	"qilabel"
	"qilabel/internal/discover"
	"qilabel/internal/naming"
)

// integrateJSON is the part of an integrate (or session result) response
// the checks compare.
type integrateJSON struct {
	Key    string            `json:"key"`
	Class  string            `json:"class"`
	Labels map[string]string `json:"labels"`
	Text   string            `json:"text"`
	Report reportJSON        `json:"report"`
}

type reportJSON struct {
	Domain      string  `json:"domain,omitempty"`
	FldAcc      float64 `json:"fldAcc"`
	IntAcc      float64 `json:"intAcc"`
	HA          float64 `json:"ha"`
	HAPrime     float64 `json:"haPrime"`
	IntLeaves   int     `json:"intLeaves"`
	IntInternal int     `json:"intInternal"`
	IntDepth    int     `json:"intDepth"`
}

type translateJSON struct {
	Key        string         `json:"key"`
	SubQueries []subQueryJSON `json:"subQueries"`
}

type subQueryJSON struct {
	Interface   string           `json:"interface"`
	Assignments []assignmentJSON `json:"assignments"`
	Unsupported []string         `json:"unsupported,omitempty"`
}

type assignmentJSON struct {
	Label       string   `json:"label"`
	Clusters    []string `json:"clusters"`
	Value       string   `json:"value"`
	Approximate bool     `json:"approximate,omitempty"`
}

type sessionOpJSON struct {
	Sources int    `json:"sources"`
	Key     string `json:"key"`
}

type ingestJSON struct {
	Assignments []struct {
		FormHash string `json:"formHash"`
	} `json:"assignments"`
}

type discoveredJSON struct {
	Domains []struct {
		Forms []string `json:"forms"`
	} `json:"domains"`
}

// reference is the in-process result a response must reproduce.
type reference struct {
	res  *qilabel.Result
	want integrateJSON
}

// checker compares responses with untimed in-process runs of the same
// pools under the same configuration and lexicon.
type checker struct {
	wl   *workload
	igs  map[*refConfig]*qilabel.Integrator
	refs map[string]*reference // by cache key
	// formHash and formLabels hold each stream form's extracted canonical
	// hash and distinct leaf labels.
	formHash   []string
	formLabels [][]string
}

func newChecker(wl *workload) *checker {
	c := &checker{wl: wl, igs: make(map[*refConfig]*qilabel.Integrator), refs: make(map[string]*reference)}
	for _, f := range wl.forms {
		var h string
		var labels []string
		if trees := qilabel.ExtractForms([]byte(f.html), f.iface); len(trees) == 1 {
			h = trees[0].CanonicalHash()
			seen := make(map[string]bool)
			for _, leaf := range trees[0].Leaves() {
				if l := strings.TrimSpace(leaf.Label); l != "" && !seen[l] {
					seen[l] = true
					labels = append(labels, l)
				}
			}
		}
		c.formHash = append(c.formHash, h)
		c.formLabels = append(c.formLabels, labels)
	}
	return c
}

func (c *checker) integrator(ref *refConfig) (*qilabel.Integrator, error) {
	if ig, ok := c.igs[ref]; ok {
		return ig, nil
	}
	ig, err := qilabel.NewIntegrator(ref.config())
	if err != nil {
		return nil, err
	}
	c.igs[ref] = ig
	return ig, nil
}

// job is one pool the checks need a reference for.
type job struct {
	ref    *refConfig
	domain string
	trees  []*qilabel.Tree
}

// prepare computes the references for every pool the outcomes touch, on
// up to workers goroutines.
func (c *checker) prepare(outs []*outcome, workers int) error {
	jobs := make(map[string]job)
	add := func(j job) error {
		ig, err := c.integrator(j.ref)
		if err != nil {
			return err
		}
		if key := ig.CacheKey(j.trees); c.refs[key] == nil {
			jobs[key] = j
		}
		return nil
	}
	for _, o := range outs {
		var err error
		switch o.op.kind {
		case opIntegrate, opTranslate:
			p := c.wl.pools[o.op.pool]
			err = add(job{ref: p.ref, domain: p.domain, trees: p.trees})
		case opEdit:
			err = add(job{ref: c.wl.sessionRef, trees: c.sessionTrees(o.op.edit.after)})
		}
		if err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(jobs))
	for k := range jobs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	results := make([]*reference, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = c.compute(keys[i], jobs[keys[i]])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i, k := range keys {
		c.refs[k] = results[i]
	}
	return nil
}

func (c *checker) compute(key string, j job) (*reference, error) {
	res, err := c.igs[j.ref].IntegrateContext(context.Background(), j.trees)
	if err != nil {
		return nil, fmt.Errorf("reference integration: %w", err)
	}
	rep := res.Report(j.domain, j.trees)
	return &reference{res: res, want: integrateJSON{
		Key:    key,
		Class:  res.Class.String(),
		Labels: res.Labels,
		Text:   res.Tree.String(),
		Report: reportJSON{Domain: rep.Domain, FldAcc: rep.FldAcc, IntAcc: rep.IntAcc, HA: rep.HA,
			HAPrime: rep.HAPrime, IntLeaves: rep.IntLeaves, IntInternal: rep.IntInternal, IntDepth: rep.IntDepth},
	}}, nil
}

func (c *checker) sessionTrees(ids []int) []*qilabel.Tree {
	trees := make([]*qilabel.Tree, len(ids))
	for i, id := range ids {
		trees[i] = c.wl.trees[id]
	}
	return trees
}

func (c *checker) refFor(ref *refConfig, trees []*qilabel.Tree) (*reference, error) {
	ig, err := c.integrator(ref)
	if err != nil {
		return nil, err
	}
	r := c.refs[ig.CacheKey(trees)]
	if r == nil {
		return nil, errors.New("no reference computed")
	}
	return r, nil
}

// check verifies one operation's responses; the first mismatch is its
// error.
func (c *checker) check(o *outcome) error {
	if o.err != nil {
		return o.err
	}
	switch o.op.kind {
	case opIntegrate:
		return c.checkIntegrate(o.op.pool, o.calls[0].body)
	case opTranslate:
		p := c.wl.pools[o.op.pool]
		r, err := c.refFor(p.ref, p.trees)
		if err != nil {
			return err
		}
		return checkTranslate(r, o.op.query, o.calls[0].body)
	case opIngest:
		var got ingestJSON
		if err := json.Unmarshal(o.calls[0].body, &got); err != nil {
			return fmt.Errorf("ingest response: %w", err)
		}
		if len(got.Assignments) != 1 || got.Assignments[0].FormHash != c.formHash[o.form] {
			return fmt.Errorf("ingest of form %d: assignments %+v, want form hash %s", o.form, got.Assignments, c.formHash[o.form])
		}
		return nil
	case opEdit:
		return c.checkEdit(o)
	}
	return nil
}

func (c *checker) checkIntegrate(pool int, data []byte) error {
	p := c.wl.pools[pool]
	var got integrateJSON
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("integrate response: %w", err)
	}
	if p.domain != "" {
		g := c.wl.golden[p.domain]
		if got.Key != g.Key || got.Class != g.Class || got.Text != g.Tree || !reflect.DeepEqual(got.Labels, g.Labels) {
			return fmt.Errorf("%s: response differs from testdata/golden", p.domain)
		}
		return nil
	}
	r, err := c.refFor(p.ref, p.trees)
	if err != nil {
		return err
	}
	return sameIntegration(got, r.want)
}

func sameIntegration(got, want integrateJSON) error {
	switch {
	case got.Key != want.Key:
		return fmt.Errorf("key %s, want %s", got.Key, want.Key)
	case got.Class != want.Class:
		return fmt.Errorf("class %q, want %q", got.Class, want.Class)
	case !reflect.DeepEqual(got.Labels, want.Labels):
		return errors.New("labels differ from the in-process run")
	case got.Text != want.Text:
		return errors.New("labeled tree differs from the in-process run")
	case got.Report != want.Report:
		return fmt.Errorf("report %+v, want %+v", got.Report, want.Report)
	}
	return nil
}

// checkTranslate compares a translate response with the reference
// result's translation of the same query, both through the JSON shape.
func checkTranslate(r *reference, q map[string]string, data []byte) error {
	var got translateJSON
	if err := json.Unmarshal(data, &got); err != nil {
		return fmt.Errorf("translate response: %w", err)
	}
	want := translateJSON{Key: r.want.Key}
	for _, sub := range r.res.Translate(q) {
		sj := subQueryJSON{Interface: sub.Interface, Assignments: []assignmentJSON{}, Unsupported: sub.Unsupported}
		for _, a := range sub.Assignments {
			sj.Assignments = append(sj.Assignments, assignmentJSON{Label: a.Label, Clusters: a.Clusters, Value: a.Value, Approximate: a.Approximate})
		}
		want.SubQueries = append(want.SubQueries, sj)
	}
	// Round-trip the expectation so both sides share JSON's nil/empty
	// conventions.
	enc, err := json.Marshal(want)
	if err != nil {
		return err
	}
	var norm translateJSON
	if err := json.Unmarshal(enc, &norm); err != nil {
		return err
	}
	if !reflect.DeepEqual(got, norm) {
		return errors.New("translation differs from the in-process run")
	}
	return nil
}

// checkEdit verifies a session step: the delta's source count and key,
// the result against a from-scratch integration of the session's
// sources, and the translation against that integration.
func (c *checker) checkEdit(o *outcome) error {
	st := o.op.edit
	r, err := c.refFor(c.wl.sessionRef, c.sessionTrees(st.after))
	if err != nil {
		return err
	}
	// The calls are [create,] delta, result, translate[, close].
	calls := o.calls
	if st.open {
		calls = calls[1:]
	}
	if len(calls) < 3 {
		return errors.New("session step incomplete")
	}
	var delta sessionOpJSON
	if err := json.Unmarshal(calls[0].body, &delta); err != nil {
		return fmt.Errorf("session %s: %w", st.act, err)
	}
	if delta.Sources != len(st.after) || delta.Key != r.want.Key {
		return fmt.Errorf("session %s: %d sources with key %s, want %d with %s", st.act, delta.Sources, delta.Key, len(st.after), r.want.Key)
	}
	var got integrateJSON
	if err := json.Unmarshal(calls[1].body, &got); err != nil {
		return fmt.Errorf("session result: %w", err)
	}
	if err := sameIntegration(got, r.want); err != nil {
		return fmt.Errorf("session result: %w", err)
	}
	var req struct {
		Query map[string]string `json:"query"`
	}
	if err := json.Unmarshal(calls[2].req, &req); err != nil {
		return err
	}
	if err := checkTranslate(r, req.Query, calls[2].body); err != nil {
		return fmt.Errorf("session translate: %w", err)
	}
	return nil
}

// checkPartition compares the discovered domains with the partition
// discovery's contract defines over the whole stream: the connected
// components of the graph that joins two forms when their label
// similarity reaches the threshold, computed here from the extracted
// forms. It also reports how many domains that partition has against the
// stream's ground truth: forms of two generated domains can relate
// across domains through hypernymy, and then belong together.
func (c *checker) checkPartition(data []byte) (found, truth int, err error) {
	var got discoveredJSON
	if err := json.Unmarshal(data, &got); err != nil {
		return 0, 0, fmt.Errorf("discovered domains: %w", err)
	}
	var have []string
	for _, d := range got.Domains {
		hs := append([]string(nil), d.Forms...)
		sort.Strings(hs)
		have = append(have, fmt.Sprint(hs))
	}
	sort.Strings(have)
	truths := make(map[int]bool)
	for _, f := range c.wl.forms {
		truths[f.domain] = true
	}
	want := c.referencePartition()
	if !reflect.DeepEqual(want, have) {
		return len(have), len(truths), fmt.Errorf("discovered %d domains, the stream's forms make %d", len(have), len(want))
	}
	return len(have), len(truths), nil
}

// referencePartition groups the stream's forms into the connected
// components of the at-threshold similarity graph, each component as its
// sorted form hashes, the components sorted.
func (c *checker) referencePartition() []string {
	sem := naming.NewSemantics(qilabel.DefaultLexicon())
	n := len(c.formLabels)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for i := range n {
		for j := i + 1; j < n; j++ {
			if find(i) != find(j) && similarity(sem, c.formLabels[i], c.formLabels[j]) >= discover.DefaultThreshold {
				parent[find(i)] = find(j)
			}
		}
	}
	groups := make(map[int][]string)
	for i := range n {
		groups[find(i)] = append(groups[find(i)], c.formHash[i])
	}
	var out []string
	for _, hs := range groups {
		sort.Strings(hs)
		out = append(out, fmt.Sprint(hs))
	}
	sort.Strings(out)
	return out
}

// similarity is discovery's kernel: the share of labels on either side
// with a related label (Definition 1) on the other.
func similarity(sem *naming.Semantics, a, b []string) float64 {
	if len(a)+len(b) == 0 {
		return 0
	}
	matched := 0
	for _, pair := range [2][2][]string{{a, b}, {b, a}} {
		for _, x := range pair[0] {
			for _, y := range pair[1] {
				if sem.Relate(x, y) != naming.RelNone {
					matched++
					break
				}
			}
		}
	}
	return float64(matched) / float64(len(a)+len(b))
}
