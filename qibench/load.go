package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// transport performs one HTTP exchange: against the daemon over loopback,
// or straight into an in-process handler in the traced replay.
type transport interface {
	do(method, path string, b body) (status int, resp []byte, err error)
}

type httpTransport struct {
	client *http.Client
	base   string
	bufs   sync.Pool // *bytes.Buffer for reading responses

	mu   sync.Mutex
	seen map[[sha256.Size]byte][]byte // each distinct response body, kept once
}

// newHTTPTransport opens at most conns connections to base.
func newHTTPTransport(base string, conns int) *httpTransport {
	return &httpTransport{
		base: base,
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
		seen: make(map[[sha256.Size]byte][]byte),
		client: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
}

func (t *httpTransport) do(method, path string, b body) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if b != nil {
		rd = b.reader()
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if b != nil {
		req.ContentLength = b.size()
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	buf := t.bufs.Get().(*bytes.Buffer)
	defer t.bufs.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, nil, err
	}
	return resp.StatusCode, t.intern(buf.Bytes()), nil
}

// intern returns the stored copy of a response body, storing it first if
// it is new, so repeated responses cost the load generator no memory.
func (t *httpTransport) intern(b []byte) []byte {
	sum := sha256.Sum256(b)
	t.mu.Lock()
	defer t.mu.Unlock()
	if v, ok := t.seen[sum]; ok {
		return v
	}
	v := append([]byte(nil), b...)
	t.seen[sum] = v
	return v
}

func (t *httpTransport) close() { t.client.CloseIdleConnections() }

// handlerTransport calls a handler in-process and records a
// server.handler span around each call.
type handlerTransport struct {
	h   http.Handler
	rec *recorder
}

func (t *handlerTransport) do(method, path string, b body) (int, []byte, error) {
	var rd io.Reader = http.NoBody
	if b != nil {
		rd = bytes.NewReader(b.bytes())
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	t.rec.timed("server.handler", func() { t.h.ServeHTTP(w, req) })
	return w.Code, w.Body.Bytes(), nil
}

// call is one HTTP exchange of an operation.
type call struct {
	method, path string
	req          []byte // request bodies formed at send time
	status       int
	body         []byte
}

// outcome is what one operation did.
type outcome struct {
	op       *op
	lat, lag time.Duration // lag: send time minus due time (open loop)
	err      error         // transport, status or check failure
	calls    []call
	form     int // ingest: the stream form sent
}

// editorState is one session-edit client's open session.
type editorState struct {
	id string
}

// client runs operations over a transport.
type client struct {
	t     transport
	wl    *workload
	forms *atomic.Int64 // next ingest form, shared by the editors
}

func (c *client) run(o *op, ed *editorState) *outcome {
	out := &outcome{op: o}
	switch o.kind {
	case opIntegrate:
		c.call(out, "POST", "/v1/integrate", o.body, nil)
	case opTranslate:
		c.call(out, "POST", "/v1/translate", o.body, nil)
	case opIngest:
		out.form = int(c.forms.Add(1)-1) % len(c.wl.forms)
		c.call(out, "POST", "/v1/ingest", c.wl.forms[out.form].body, nil)
	case opEdit:
		c.edit(out, o.edit, ed)
	}
	return out
}

// call performs one exchange and records it. A transport error or a
// non-2xx status fails the operation.
func (c *client) call(out *outcome, method, path string, b body, req []byte) []byte {
	if req != nil {
		b = body{req}
	}
	st, data, err := c.t.do(method, path, b)
	out.calls = append(out.calls, call{method: method, path: path, req: req, status: st, body: data})
	if out.err == nil {
		switch {
		case err != nil:
			out.err = fmt.Errorf("%s %s: %w", method, path, err)
		case st/100 != 2:
			out.err = fmt.Errorf("%s %s: status %d", method, path, st)
		}
	}
	return data
}

// edit applies one session delta, reads the re-labeled result and
// translates a query against the session's key.
func (c *client) edit(out *outcome, st *editStep, ed *editorState) {
	if st.open {
		data := c.call(out, "POST", "/v1/sessions", c.wl.createBody, nil)
		if out.err != nil {
			return
		}
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(data, &created); err != nil || created.ID == "" {
			out.err = errors.New("session create: no id in response")
			return
		}
		ed.id = created.ID
	}
	base := "/v1/sessions/" + ed.id
	switch st.act {
	case "add":
		c.call(out, "POST", base+"/sources", c.wl.treeBody[st.tree], nil)
	case "update":
		c.call(out, "PUT", base+"/sources/"+c.wl.treeHash[st.tree], c.wl.treeBody[st.repl], nil)
	case "remove":
		c.call(out, "DELETE", base+"/sources/"+c.wl.treeHash[st.tree], nil, nil)
	}
	if out.err != nil {
		return
	}
	data := c.call(out, "GET", base+"/result", nil, nil)
	if out.err != nil {
		return
	}
	var res struct {
		Key    string            `json:"key"`
		Labels map[string]string `json:"labels"`
	}
	if err := json.Unmarshal(data, &res); err != nil {
		out.err = fmt.Errorf("session result: %w", err)
		return
	}
	c.call(out, "POST", "/v1/translate", nil, translateBody(res.Key, res.Labels))
	if st.close {
		c.call(out, "DELETE", base, nil, nil)
		ed.id = ""
	}
}

// translateBody queries the first two clusters of a result. It is formed
// at send time because the clusters are the matcher's.
func translateBody(key string, labels map[string]string) []byte {
	clusters := make([]string, 0, len(labels))
	for c := range labels {
		clusters = append(clusters, c)
	}
	sort.Strings(clusters)
	q := make(map[string]string)
	for _, c := range clusters[:min(2, len(clusters))] {
		q[c] = "1"
	}
	data, _ := json.Marshal(map[string]any{"key": key, "query": q})
	return data
}

// openLoop sends every op at its due time after the phase starts, from
// workers goroutines. Latency counts from the due time, so a stall also
// delays the ops queued behind it.
func openLoop(c *client, ops []*op, workers int) []*outcome {
	outs := make([]*outcome, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ed := &editorState{}
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(ops[i].due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				o := c.run(ops[i], ed)
				o.lat, o.lag = time.Since(due), sent.Sub(due)
				outs[i] = o
			}
		}()
	}
	wg.Wait()
	return outs
}

// closedLoop runs one goroutine per client, each sending its next op as
// soon as the previous one returns, until d has passed. The ops started
// before the deadline finish; elapsed runs to the last completion.
func closedLoop(c *client, next func(worker int) *op, workers int, d time.Duration) (outs []*outcome, elapsed time.Duration) {
	per := make([][]*outcome, workers)
	ends := make([]time.Time, workers)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ed := &editorState{}
			for time.Now().Before(deadline) {
				t0 := time.Now()
				o := c.run(next(w), ed)
				ends[w] = time.Now()
				o.lat = ends[w].Sub(t0)
				per[w] = append(per[w], o)
			}
		}()
	}
	wg.Wait()
	last := start
	for w := range workers {
		outs = append(outs, per[w]...)
		if ends[w].After(last) {
			last = ends[w]
		}
	}
	return outs, last.Sub(start)
}
