package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qilabel"
)

// sameAsJSONDecoder fails unless decodeRequest accepts data exactly when
// json.Decoder does into a T, building a reflect.DeepEqual value.
func sameAsJSONDecoder[T any](t *testing.T, data []byte) {
	t.Helper()
	var want, got T
	if _, ok := any(&got).(wireRequest); !ok {
		t.Fatalf("%T is not decoded by hand", got)
	}
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	gotErr := decodeRequest(data, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%T from %q: json.Decoder error %v, hand decoder error %v", got, data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%T from %q differs:\njson.Decoder: %+v\nhand decoder: %+v", got, data, want, got)
	}
}

// sameAsUnmarshal fails unless qilabel.DecodeTrees accepts data exactly
// when json.Unmarshal into []*Tree and validation do, building a
// reflect.DeepEqual value.
func sameAsUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	var want []*qilabel.Tree
	wantErr := json.Unmarshal(data, &want)
	for _, tr := range want {
		if wantErr == nil {
			wantErr = tr.Validate()
		}
	}
	got, gotErr := qilabel.DecodeTrees(data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("trees from %q: json.Unmarshal error %v, DecodeTrees error %v", data, wantErr, gotErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("trees from %q differ", data)
	}
}

// treeJSONCorpus returns FuzzTreeJSON's seed corpus: its committed
// corpus files (internal/schema) and the seeds it adds in code.
func treeJSONCorpus(tb testing.TB) [][]byte {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "schema", "testdata", "fuzz", "FuzzTreeJSON", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("FuzzTreeJSON corpus: %v (%d files)", err, len(files))
	}
	var out [][]byte
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		_, lit, _ := strings.Cut(string(data), "\n")
		lit = strings.TrimSpace(lit)
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	valid, err := qilabel.EncodeTrees([]*qilabel.Tree{
		qilabel.NewTree("aa",
			qilabel.NewGroup("Passengers",
				qilabel.NewField("Adults", "c_Adult"),
				qilabel.NewField("Children", "c_Child"),
			),
			qilabel.NewField("From", "c_From"),
		),
		qilabel.NewTree("bb",
			qilabel.NewField("Class", "c_Class", "Economy", "Business"),
			qilabel.NewMultiField("Passengers", "c_Adult", "c_Child"),
		),
	})
	if err != nil {
		tb.Fatal(err)
	}
	out = append(out, valid)
	for _, s := range []string{
		`[]`,
		`[{"interface":"x","root":{"label":"","children":[{"label":"A"}]}}]`,
		`[{"interface":"x"}]`,
		`[{`, `null`, `{}`, `0`, `"tree"`,
		`[{"interface":"x","root":{"label":"r","children":[{"label":"A","cluster":"c","multiClusters":["d"]}]}}]`,
	} {
		out = append(out, []byte(s))
	}
	return out
}

// wireSeeds are the request bodies encoding/json treats specially.
var wireSeeds = []string{
	// Key case, and keys that match only under Unicode folding: K (U+212A)
	// and ſ (U+017F) fold to k and s.
	`{"SOURCES":[{"Interface":"a","ROOT":{"Label":"x"}}],"Domain":"d","OPTIONS":{"Matcher":true}}`,
	`{"ſources":[{"interface":"a","root":{"multiclusters":["K"],"cluſter":"c"}}]}`,
	`{"items":[{"domain":"Airline"}],"PARALLELISM":2,"Items":[{"ſources":null}]}`,
	`{"ſource":{"interface":"a","root":{}},"HTML":"<form></form>","lexicon":"v","Interface":"i"}`,
	// Unknown fields, still valid JSON, and a key repeated twice and three
	// times.
	`{"x":{"y":[1,-2.5e+3,true,false,null,"s",{}]},"domain":"Airline","z":0}`,
	`{"sources":[{"interface":"a","root":{"label":"r"}}],"sources":[{"root":{"cluster":"c"}}]}`,
	`{"sources":[{"interface":"a"},{"interface":"b"}],"sources":[{}],"sources":[{},{},{}]}`,
	`{"options":{"matcher":true},"options":{"maxLevel":2},"options":null,"domain":"a","domain":"b","domain":null}`,
	`{"items":[{"domain":"a"},{"domain":"b"}],"items":[{"sources":[]}],"items":[null,{"domain":"c"}],"parallelism":1,"parallelism":null}`,
	`{"source":{"interface":"a","root":{"children":[{"label":"x"}]}},"source":{"root":{"children":[{},{}]}},"source":{"root":null}}`,
	// Every escape, lone and paired surrogates, and invalid UTF-8.
	`{"domain":"\"\\\/\b\f\n\r\té€","html":"😀 \ud83d \ude00 \ud83dA \udc00\ud83d"}`,
	"{\"domain\":\"\xff\xfe a\xc3 \xed\xa0\x80 \xef\xbf\xbd\",\"sources\":[{\"interface\":\"\xe2\x82\"}]}",
	"{\"\xff\":1,\"dom\\u0061in\":\"a\"}",
	`{"domain":"\x"}`, `{"domain":"\u12"}`, "{\"domain\":\"a\tb\"}",
	// null and wrong-typed values in every position.
	`null`, `{}`, `[]`, `"s"`, `1`, `true`,
	`{"sources":null,"domain":null,"options":null,"items":null,"parallelism":null,"source":null,"html":null}`,
	`{"sources":{}}`, `{"sources":"a"}`, `{"sources":[1]}`, `{"sources":[[]]}`, `{"sources":[null]}`,
	`{"domain":1}`, `{"domain":[]}`, `{"options":[]}`, `{"options":"o"}`, `{"options":{"maxLevel":"1"}}`,
	`{"items":{}}`, `{"items":[1]}`, `{"items":["a"]}`, `{"parallelism":"2"}`, `{"parallelism":1.5}`,
	`{"parallelism":1e2}`, `{"parallelism":-0}`, `{"parallelism":99999999999999999999}`,
	`{"source":[]}`, `{"source":"a"}`, `{"source":{"root":[]}}`, `{"html":{}}`, `{"lexicon":false}`,
	`{"sources":[{"interface":1}]}`, `{"sources":[{"root":{"label":true}}]}`,
	`{"sources":[{"root":{"instances":[1]}}]}`, `{"sources":[{"root":{"children":[1]}}]}`,
	`{"sources":[{"root":{"multiClusters":{}}}]}`, `{"sources":[{"root":{"aggregated":"true"}}]}`,
	// Trailing bytes: json.Decoder ignores everything after the first value.
	`{"domain":"Airline"} trailing`, `{"domain":"Airline"}}`, `null x`, `nullx`, `{} {}`,
	// Syntax.
	``, ` `, `{`, `{"domain"`, `{"domain":}`, `{"domain":"a",}`, `{,}`, `{"a" 1}`, `{1:2}`,
	`{"x":01}`, `{"x":1.}`, `{"x":-}`, `{"x":1e}`, `{"x":tru}`, `{"x":[1,]}`, "{\"x\":\x00}",
}

// FuzzWireDecode is the differential check of the hand-walked request
// decoders (wire.go, over schema.Decoder) against encoding/json. Every
// tree-carrying body must be accepted exactly when json.Decoder accepts
// it, decoding to a reflect.DeepEqual value, and qilabel.DecodeTrees must
// accept exactly what json.Unmarshal accepts (and validation passes),
// building equal trees. Each input is tried as a whole body, as
// DecodeTrees input, and as the trees of an integrate, batch and session
// or ingest body.
func FuzzWireDecode(f *testing.F) {
	for _, seed := range treeJSONCorpus(f) {
		f.Add(seed)
	}
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsUnmarshal(t, data)
		for _, body := range [][]byte{
			data,
			append(append([]byte(`{"sources":`), data...), '}'),
			append(append([]byte(`{"items":[{"sources":`), data...), `}],"parallelism":2}`...),
			append(append([]byte(`{"source":`), data...), '}'),
		} {
			sameAsJSONDecoder[integrateRequest](t, body)
			sameAsJSONDecoder[batchRequest](t, body)
			sameAsJSONDecoder[sessionSourceRequest](t, body)
			sameAsJSONDecoder[ingestRequest](t, body)
		}
	})
}

// postRaw posts body to url and returns the status.
func postRaw(t *testing.T, url string, body []byte) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestBodyLimitCountsTrailingBytes pins that a body is read whole under
// MaxBodyBytes: one whose JSON value ends within the limit but whose
// trailing bytes pass it answers 413, while trailing bytes within the
// limit are still ignored.
func TestBodyLimitCountsTrailingBytes(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	value := `{"domain":"Airline"}`
	if got := postRaw(t, ts.URL+"/v1/integrate", []byte(value+strings.Repeat(" ", 10_000))); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("value within the limit, body past it: status %d, want 413", got)
	}
	if got := postRaw(t, ts.URL+"/v1/integrate", []byte(value+" trailing bytes")); got != http.StatusOK {
		t.Fatalf("trailing bytes within the limit: status %d, want 200", got)
	}
}

// TestDeepBodiesRejected sends two bodies nested far past encoding/json's
// 10,000 levels to every endpoint that decodes trees: a million open
// arrays under an unknown key, and 100,000 nested children. Each answers
// 400, and the daemon serves normally afterwards.
func TestDeepBodiesRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var sess sessionCreateResponse
	decodeBody(t, postJSON(t, ts.URL+"/v1/sessions", sessionCreateRequest{}), &sess)

	arrays := strings.Repeat("[", 1_000_000)
	var b strings.Builder
	b.WriteString(`{"interface":"deep","root":{"label":"r"`)
	for i := 0; i < 100_000; i++ {
		b.WriteString(`,"children":[{"label":"n"`)
	}
	tree := b.String()
	for _, c := range []struct{ path, body string }{
		{"/v1/integrate", `{"x":` + arrays},
		{"/v1/integrate", `{"sources":[` + tree},
		{"/v1/integrate/batch", `{"items":[{"x":` + arrays},
		{"/v1/integrate/batch", `{"items":[{"sources":[` + tree},
		{"/v1/sessions/" + sess.ID + "/sources", `{"x":` + arrays},
		{"/v1/sessions/" + sess.ID + "/sources", `{"source":` + tree},
		{"/v1/ingest", `{"x":` + arrays},
		{"/v1/ingest", `{"source":` + tree},
	} {
		if got := postRaw(t, ts.URL+c.path, []byte(c.body)); got != http.StatusBadRequest {
			t.Fatalf("%s with a %d-byte deep body: status %d, want 400", c.path, len(c.body), got)
		}
	}
	if got := integrateOnce(t, ts.URL, integrateRequest{Sources: fixtureSources()}); got.Key == "" {
		t.Fatal("no key after the deep bodies")
	}
}

// TestParentSnapshotLoads loads a snapshot written by the code before
// cache entries kept their sources as canonical bytes
// (testdata/snapshot_v1.json: the fixture sources, plain and with the
// matcher). Its entries serve /v1/integrate as hits, serve /v1/translate
// through rehydration, are listed by the lexicon upgrade report under
// their persisted keys, and save back to the same sources.
func TestParentSnapshotLoads(t *testing.T) {
	const path = "testdata/snapshot_v1.json"
	s, ts := newTestServer(t, Config{})
	restored, err := s.LoadCache(path)
	if err != nil || restored != 2 {
		t.Fatalf("restored %d entries (error %v), want 2", restored, err)
	}
	var file cacheSnapshotFile
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}

	hit := integrateOnce(t, ts.URL, integrateRequest{Sources: fixtureSources()})
	if !hit.Cached || hit.Key != file.Entries[0].Key {
		t.Fatalf("integrate: cached=%v key %s, want a hit on %s", hit.Cached, hit.Key, file.Entries[0].Key)
	}
	for _, e := range file.Entries {
		resp := postJSON(t, ts.URL+"/v1/translate", translateRequest{Key: e.Key, Query: map[string]string{"c_Adult": "2"}})
		var tr translateResponse
		decodeBody(t, resp, &tr)
		if resp.StatusCode != http.StatusOK || len(tr.SubQueries) == 0 {
			t.Fatalf("translate %s: status %d, %d sub-queries", e.Key, resp.StatusCode, len(tr.SubQueries))
		}
	}

	putLexiconBody(t, ts.URL, "vnext", artifactOf(t, tenantLexicon(9)))
	resp, err := http.Get(ts.URL + "/v1/lexicons/report?to=vnext")
	if err != nil {
		t.Fatal(err)
	}
	var rep lexiconReportResponse
	decodeBody(t, resp, &rep)
	listed := make(map[string]bool)
	for _, c := range rep.CachedResults {
		listed[c.Key] = c.NewKey != "" && c.NewKey != c.Key
	}
	for _, e := range file.Entries {
		if !listed[e.Key] {
			t.Fatalf("upgrade report does not re-key %s: %+v", e.Key, rep.CachedResults)
		}
	}

	out := filepath.Join(t.TempDir(), "cache.json")
	if _, err := s.SaveCache(out); err != nil {
		t.Fatal(err)
	}
	var saved cacheSnapshotFile
	if data, err = os.ReadFile(out); err == nil {
		err = json.Unmarshal(data, &saved)
	}
	if err != nil {
		t.Fatal(err)
	}
	bySource := func(f cacheSnapshotFile) map[string]string {
		m := make(map[string]string)
		for _, e := range f.Entries {
			enc, _ := qilabel.EncodeTrees(e.Sources)
			m[e.Key] = fmt.Sprintf("%s %+v", enc, e.Options)
		}
		return m
	}
	if got, want := bySource(saved), bySource(file); !reflect.DeepEqual(got, want) {
		t.Fatalf("saved snapshot sources differ from the loaded ones:\n%v\nwant\n%v", got, want)
	}
}

// decodePooled decodes data into a T through a pooled body buffer, as
// Server.decode does, then overwrites the whole buffer and returns it to
// the pool, and reports whether the decoded value still equals what
// json.Unmarshal builds from a copy of data.
func decodePooled[T any](data []byte) error {
	var got, want T
	if err := json.Unmarshal(bytes.Clone(data), &want); err != nil {
		return err
	}
	buf, err := readBody(bytes.NewReader(data), int64(len(data)))
	if err == nil {
		err = decodeRequest(buf.Bytes(), &got)
	}
	scribble := buf.Bytes()
	scribble = scribble[:cap(scribble)]
	for i := range scribble {
		scribble[i] = '#'
	}
	bodyBuffers.Put(buf)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%T decoded from %s changed after its buffer was overwritten: %+v", got, data, got)
	}
	return nil
}

// TestDecodedRequestsSurviveBufferReuse decodes every request body type
// from pooled buffers on eight goroutines at once and overwrites each
// buffer once its body is decoded: a decoded request must not alias the
// buffer that the next request reuses. Labels and instances carry escapes,
// which the tree decoder unescapes through its own scratch space.
func TestDecodedRequestsSurviveBufferReuse(t *testing.T) {
	escaped := qilabel.NewTree("café",
		qilabel.NewGroup("Who \"goes\"\n",
			qilabel.NewField("Adults\t", "c_Adult", "1", "2 "),
			qilabel.NewMultiField("Kids", "c_Child", "c_Infant"),
		),
	)
	sources := append(fixtureSources(), escaped)
	opts := requestOptions{Matcher: true, MaxLevel: 2, Lexicon: "tenant-é"}
	var bodies [][]byte
	var decoders []func([]byte) error
	add := func(v any, decode func([]byte) error) {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, data)
		decoders = append(decoders, decode)
	}
	add(integrateRequest{Sources: sources, Options: opts}, decodePooled[integrateRequest])
	add(integrateRequest{Domain: "Airline"}, decodePooled[integrateRequest])
	add(batchRequest{Items: []integrateRequest{{Sources: sources}, {Domain: "Hotels", Options: opts}}, Parallelism: 2}, decodePooled[batchRequest])
	add(sessionSourceRequest{Source: escaped}, decodePooled[sessionSourceRequest])
	add(ingestRequest{Source: escaped, Lexicon: "vé"}, decodePooled[ingestRequest])
	add(ingestRequest{HTML: "<form id=\"f\"><label>Café</label><input name=\"a\"></form>", Interface: "f"}, decodePooled[ingestRequest])
	add(extractRequest{HTML: "<form><input name=\"q\"></form>", Interface: "xé", Integrate: true, Options: opts}, decodePooled[extractRequest])
	add(translateRequest{Key: strings.Repeat("ab", 32), Query: map[string]string{"c_Adult": "2\n", "c_é": "x"}, Lexicon: "v"}, decodePooled[translateRequest])
	add(sessionCreateRequest{Options: opts}, decodePooled[sessionCreateRequest])

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (g + i) % len(bodies)
				if err := decoders[k](bodies[k]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
