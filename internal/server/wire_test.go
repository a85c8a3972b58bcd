package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qilabel"
	"qilabel/internal/schema"
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
	// Repeated and case-folded sources, root, children and instances keys
	// decoding into the trees, nodes and lists already there, with null
	// sources and children among them.
	`{"sources":[{"interface":"a","root":{"label":"r","children":[{"label":"x","instances":["1","2"]},null]}}],"Sources":[{"ROOT":{"Children":[{"instances":[null,"3"]},{"label":"y"}],"children":[null,{}]}},null]}`,
	`{"sources":[null,{"interface":"b","root":null,"Root":{"label":"l","instances":["i","j","k"],"INSTANCES":[],"instances":[null]}}],"sources":[{"interface":"c"},{}]}`,
	`{"sources":[{"interface":"a","root":{"children":[{"label":"x","cluster":"c"},{"label":"y"}],"children":[{"multiClusters":["m"]}],"children":[{},{},{}]}}],"sources":[{"root":{"children":null}}]}`,
	`{"source":{"interface":"a","root":{"label":"r"}},"SOURCE":{"root":{"cluster":"c","instances":["x"],"instances":null}},"ſource":{"root":{"aggregated":true}}}`,
	// Escapes and invalid UTF-8 in the strings of trees, which the walker
	// unescapes into its scratch while plain strings stay spans of the body.
	`{"sources":[{"interface":"\u00e9\n\"q\"","root":{"label":"\ud83d\ude00 \ud83d x","instances":["\\","\/","plain"],"cluster":"c\u0000"}}]}`,
	"{\"sources\":[{\"interface\":\"\xff\",\"root\":{\"label\":\"a\xc3\",\"children\":[{\"label\":\"\xed\xa0\x80\",\"multiClusters\":[\"\\t\",null]}]}}]}",
	`{"items":[{"sources":[{"interface":"a","root":{}}]},{"domain":"Airline"}],"items":[{"domain":"x"},{"sources":null}],"items":[{},{},{"sources":[{"interface":"c","root":{"children":[]}}]}]}`,
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

// wireBodies returns the bodies a fuzz input is tried as: itself, and the
// trees of an integrate, batch and session or ingest body.
func wireBodies(data []byte) [][]byte {
	return [][]byte{
		data,
		append(append([]byte(`{"sources":`), data...), '}'),
		append(append([]byte(`{"items":[{"sources":`), data...), `}],"parallelism":2}`...),
		append(append([]byte(`{"source":`), data...), '}'),
	}
}

// addWireSeeds seeds a fuzz target with FuzzTreeJSON's corpus and
// wireSeeds.
func addWireSeeds(f *testing.F) {
	for _, seed := range treeJSONCorpus(f) {
		f.Add(seed)
	}
	for _, seed := range wireSeeds {
		f.Add([]byte(seed))
	}
}

// FuzzWireDecode is the differential check of the hand-walked request
// decoders that build trees (wire.go, over schema.Decoder) against
// encoding/json. Session and ingest bodies must be accepted exactly when
// json.Decoder accepts them, decoding to a reflect.DeepEqual value, and
// qilabel.DecodeTrees must accept exactly what json.Unmarshal accepts (and
// validation passes), building equal trees. Each input is tried as
// DecodeTrees input and as each of wireBodies. FuzzWireKey checks the
// integrate and batch bodies, which build no tree.
func FuzzWireDecode(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsUnmarshal(t, data)
		for _, body := range wireBodies(data) {
			sameAsJSONDecoder[sessionSourceRequest](t, body)
			sameAsJSONDecoder[ingestRequest](t, body)
		}
	})
}

// FuzzWireKey is the differential check of the walker that keys integrate
// and batch bodies without building a tree (schema.Decoder.RawTrees and
// AppendCanonical). Each of wireBodies, read as an integrate and as a
// batch body, must be accepted exactly when json.Decoder accepts it, fail
// with the error the tree decoder (schema.Decoder.Trees) gives, and key
// what encoding/json decodes: the same domain, options and number of
// sources, the same first null source, and otherwise the canonical
// encoding and hashes schema.EncodeCanonical computes from encoding/json's
// trees and the key Integrator.CacheKey gives them.
func FuzzWireKey(f *testing.F) {
	addWireSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, body := range wireBodies(data) {
			if err := integrateKeyedLikeJSON(body, decodeRequest); err != nil {
				t.Fatal(err)
			}
			if err := batchKeyedLikeJSON(body, decodeRequest); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// integrateKeyedLikeJSON reports how decode, the hand decoder or a
// wrapping of it, reads an integrate body other than encoding/json and the
// tree decoder do.
func integrateKeyedLikeJSON(body []byte, decode func([]byte, any) error) error {
	var want integrateBody
	var got integrateRequest
	defer got.release()
	if ok, err := acceptedLikeJSON(body, &want, &got, new(treesRequest), decode); !ok {
		return err
	}
	return keyedDiff(&got, want)
}

// batchKeyedLikeJSON is integrateKeyedLikeJSON for a batch body.
func batchKeyedLikeJSON(body []byte, decode func([]byte, any) error) error {
	var want batchBody
	var got batchRequest
	defer got.release()
	if ok, err := acceptedLikeJSON(body, &want, &got, new(treesBatchRequest), decode); !ok {
		return err
	}
	if got.Parallelism != want.Parallelism || len(got.Items) != len(want.Items) {
		return fmt.Errorf("batch from %q: parallelism %d and %d items, encoding/json %d and %d",
			body, got.Parallelism, len(got.Items), want.Parallelism, len(want.Items))
	}
	for i := range got.Items {
		if err := keyedDiff(&got.Items[i], want.Items[i]); err != nil {
			return fmt.Errorf("batch from %q: item %d: %w", body, i, err)
		}
	}
	return nil
}

// acceptedLikeJSON decodes body into want with json.Decoder, into got with
// decode and into trees with decodeRequest, and reports whether got
// decoded, or how its acceptance differs from json.Decoder's or its error
// from the tree decoder's.
func acceptedLikeJSON(body []byte, want any, got, trees wireRequest, decode func([]byte, any) error) (bool, error) {
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
	gotErr := decode(body, got)
	treeErr := decodeRequest(body, trees)
	if (wantErr == nil) != (gotErr == nil) {
		return false, fmt.Errorf("%T from %q: json.Decoder error %v, hand decoder error %v", got, body, wantErr, gotErr)
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(treeErr) {
		return false, fmt.Errorf("%T from %q: hand decoder error %v, tree decoder error %v", got, body, gotErr, treeErr)
	}
	return gotErr == nil, nil
}

// treesRequest and treesBatchRequest are integrate and batch bodies read
// with the tree decoder, whose errors the walker's must equal.
type treesRequest struct{ sources []*qilabel.Tree }

func (req *treesRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "sources", "domain", "options") {
		case 0:
			return d.Trees(&req.sources)
		case 1:
			var domain string
			return d.String(&domain)
		case 2:
			var o requestOptions
			return decodeOptions(d, &o)
		}
		return d.Skip()
	})
}

type treesBatchRequest struct{ items []treesRequest }

func (req *treesBatchRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "items", "parallelism") {
		case 0:
			return schema.DecodeSlice(d, &req.items, func(item treesRequest) (treesRequest, error) {
				err := item.decodeWire(d)
				return item, err
			})
		case 1:
			var n int
			return d.Int(&n)
		}
		return d.Skip()
	})
}

// keyIntegrator is the Integrator whose CacheKey the walker's keys are
// checked against.
var keyIntegrator = sync.OnceValue(func() *qilabel.Integrator {
	ig, err := qilabel.NewIntegrator(qilabel.Config{})
	if err != nil {
		panic(err)
	}
	return ig
})

// keyedDiff reports how got, an integrate body as the hand decoder keyed
// it, differs from want, encoding/json's decoding of the same body: in its
// domain, options or number of sources, in its first null source, and,
// without one, in the canonical encoding and hashes of want's trees or in
// the cache key Integrator.CacheKey gives them.
func keyedDiff(got *integrateRequest, want integrateBody) error {
	if got.Domain != want.Domain || got.Options != want.Options || got.sources.Len() != len(want.Sources) {
		return fmt.Errorf("keyed domain %q, options %+v and %d sources; encoding/json %q, %+v and %d",
			got.Domain, got.Options, got.sources.Len(), want.Domain, want.Options, len(want.Sources))
	}
	if len(want.Sources) == 0 {
		return nil
	}
	null := slices.Index(want.Sources, nil)
	if got.nullSource != null {
		return fmt.Errorf("first null source %d, encoding/json's %d", got.nullSource, null)
	}
	if null >= 0 {
		return nil
	}
	canon, hashes := schema.EncodeCanonical(want.Sources)
	if !bytes.Equal(got.canon, canon) {
		return fmt.Errorf("canonical encoding %x, encoding/json's trees' %x", got.canon, canon)
	}
	if !slices.Equal(got.hashes, hashes) {
		return fmt.Errorf("hashes %v, encoding/json's trees' %v", got.hashes, hashes)
	}
	ig := keyIntegrator()
	if key, wantKey := newPending(ig, got.canon, got.hashes, "", got.Options).key, ig.CacheKey(want.Sources); key != wantKey {
		return fmt.Errorf("key %s, Integrator.CacheKey %s", key, wantKey)
	}
	return nil
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
	if got := integrateOnce(t, ts.URL, integrateBody{Sources: fixtureSources()}); got.Key == "" {
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

	hit := integrateOnce(t, ts.URL, integrateBody{Sources: fixtureSources()})
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

// decodeScribbled decodes data into v through a pooled body buffer, as
// Server.decode does, then overwrites the whole buffer and returns it to
// the pool.
func decodeScribbled(data []byte, v any) error {
	buf, err := readBody(bytes.NewReader(data), int64(len(data)))
	if err == nil {
		err = decodeRequest(buf.Bytes(), v)
	}
	scribble(buf.Bytes()[:buf.Cap()])
	bodyBuffers.Put(buf)
	return err
}

// scribble overwrites b.
func scribble(b []byte) {
	for i := range b {
		b[i] = '#'
	}
}

// decodePooled decodes data into a T with decodeScribbled and reports
// whether the decoded value still equals what json.Unmarshal builds from
// a copy of data.
func decodePooled[T any](data []byte) error {
	var got, want T
	if err := json.Unmarshal(bytes.Clone(data), &want); err != nil {
		return err
	}
	if err := decodeScribbled(data, &got); err != nil {
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
// buffer that the next request reuses, and an integrate or batch body
// must still key as encoding/json's trees do while the other goroutines
// reuse the walker's scratch. Labels and instances carry escapes, which
// the walker unescapes into its scratch.
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
	keyPooled := func(data []byte) error { return integrateKeyedLikeJSON(data, decodeScribbled) }
	keyPooledBatch := func(data []byte) error { return batchKeyedLikeJSON(data, decodeScribbled) }
	add(integrateBody{Sources: sources, Options: opts}, keyPooled)
	add(integrateBody{Domain: "Airline"}, keyPooled)
	add(batchBody{Items: []integrateBody{{Sources: sources}, {Domain: "Hotels", Options: opts}}, Parallelism: 2}, keyPooledBatch)
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

// TestComputedEntrySurvivesBufferReuse integrates a body whose labels and
// instances carry escapes (a cache miss), then overwrites every body and
// canonical buffer the free lists hold and sends other bodies through the
// walker's scratch. The computed entry must not change: its canonical
// encoding, which has no spare capacity and equals that of
// encoding/json's trees, its snapshot, and a translate against it, also
// once its index is dropped and rehydrated from the encoding.
func TestComputedEntrySurvivesBufferReuse(t *testing.T) {
	s := New(Config{})
	serve := func(path string, body []byte) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body.String())
		}
		return rec.Body.Bytes()
	}
	escaped := qilabel.NewTree("café",
		qilabel.NewGroup("Who \"goes\"\n",
			qilabel.NewField("Adults\t", "c_Adult", "1", "2 "),
			qilabel.NewMultiField("Kids", "c_Child", "c_Infant"),
		),
	)
	sources := append(fixtureSources(), escaped)
	body, err := json.Marshal(integrateBody{Sources: sources})
	if err != nil {
		t.Fatal(err)
	}
	var first integrateResponse
	if err := json.Unmarshal(serve("/v1/integrate", body), &first); err != nil || first.Cached {
		t.Fatalf("first integration: cached=%v, error %v", first.Cached, err)
	}
	e, ok := s.cache.Get(first.Key)
	if !ok {
		t.Fatal("the computed entry is not cached")
	}
	if len(e.canon) != cap(e.canon) || len(e.reply) != cap(e.reply) {
		t.Fatalf("entry canon has length %d, capacity %d; reply %d, %d", len(e.canon), cap(e.canon), len(e.reply), cap(e.reply))
	}
	var again integrateBody
	if err := json.Unmarshal(body, &again); err != nil {
		t.Fatal(err)
	}
	canon, _ := schema.EncodeCanonical(again.Sources)
	snapshot := func() string {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cache.json")
		if _, err := s.SaveCache(path); err != nil {
			t.Fatal(err)
		}
		var file cacheSnapshotFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &file)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, entry := range file.Entries {
			if entry.Key == first.Key {
				data, _ := json.Marshal(entry)
				return string(data)
			}
		}
		t.Fatal("the computed entry is not in the snapshot")
		return ""
	}
	query, err := json.Marshal(translateRequest{Key: first.Key, Query: map[string]string{"c_Adult": "2", "c_Child": "1"}})
	if err != nil {
		t.Fatal(err)
	}
	wantSnapshot, wantTranslate := snapshot(), string(serve("/v1/translate", query))

	for i := 0; i < 8; i++ {
		buf := bodyBuffers.Get().(*bytes.Buffer)
		scribble(buf.Bytes()[:buf.Cap()])
		defer bodyBuffers.Put(buf)
		canonBuf := canonBuffers.Get()
		scribble((*canonBuf)[:cap(*canonBuf)])
		defer canonBuffers.Put(canonBuf)
	}
	for i := 0; i < 3; i++ {
		other, err := json.Marshal(integrateBody{Sources: disjointSources(i)})
		if err != nil {
			t.Fatal(err)
		}
		serve("/v1/integrate", other)
	}

	if !bytes.Equal(e.canon, canon) {
		t.Fatal("the entry's canonical encoding changed, or never equaled encoding/json's trees'")
	}
	if got := snapshot(); got != wantSnapshot {
		t.Fatalf("snapshot entry changed:\n%s\nwant\n%s", got, wantSnapshot)
	}
	if got := string(serve("/v1/translate", query)); got != wantTranslate {
		t.Fatalf("translate changed:\n%s\nwant\n%s", got, wantTranslate)
	}
	dropped := *e
	dropped.index = nil
	s.cache.Put(first.Key, &dropped)
	if got := string(serve("/v1/translate", query)); got != wantTranslate {
		t.Fatalf("rehydrated translate differs:\n%s\nwant\n%s", got, wantTranslate)
	}
}
