package server

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// Request bodies that carry trees (/v1/integrate, /v1/integrate/batch,
// session add and update, and /v1/ingest) are walked by hand around
// schema.Decoder, which reads the trees in one pass without reflection.
// The walkers keep json.Decoder's semantics, which every other body still
// decodes with: the first JSON value of the body is decoded and any bytes
// after it are ignored, keys match fields exactly and then under
// bytes.EqualFold, unknown keys are skipped, a repeated key decodes into
// the value already there, and null leaves a field as it is (a pointer or
// slice becomes nil). The small options object goes to encoding/json as a
// raw byte span.
//
// Integrate and batch bodies build no tree: their sources are read into
// the Decoder's scratch, and their canonical encoding is appended to a
// pooled buffer the request releases once it is answered, with each
// source's hash. That is all a cache hit needs. A miss decodes trees from
// the encoding (schema.DecodeCanonical) in its flight's run. Session and
// ingest bodies build their tree (schema.Decoder.Tree).

// presizeLimit caps the buffer a declared Content-Length reserves.
const presizeLimit = 64 << 10

// wireRequest is a request body that carries trees.
type wireRequest interface {
	decodeWire(d *schema.Decoder) error
}

func (req *integrateRequest) decodeWire(d *schema.Decoder) error {
	if err := req.walk(d); err != nil || req.sources.Len() == 0 {
		return err
	}
	req.buf = canonBuffers.Get()
	*req.buf = req.appendSources(d, (*req.buf)[:0])
	return nil
}

// walk reads an integrate object; its sources stay in d's scratch.
func (req *integrateRequest) walk(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "sources", "domain", "options") {
		case 0:
			return d.RawTrees(&req.sources)
		case 1:
			return d.String(&req.Domain)
		case 2:
			return decodeOptions(d, &req.Options)
		}
		return d.Skip()
	})
}

// appendSources appends the canonical encoding of the walked sources to b
// and points canon at it, and keeps their hashes and the index of the
// first null source.
func (req *integrateRequest) appendSources(d *schema.Decoder, b []byte) []byte {
	start := len(b)
	b, req.hashes, req.nullSource = d.AppendCanonical(b, req.sources)
	req.canon = b[start:len(b):len(b)]
	return b
}

// release returns the request's canonical buffer to its free list.
func (req *integrateRequest) release() { putCanon(&req.buf) }

func (req *batchRequest) decodeWire(d *schema.Decoder) error {
	err := d.Object(func(key []byte) error {
		switch schema.MatchField(key, "items", "parallelism") {
		case 0:
			return schema.DecodeSlice(d, &req.Items, func(item integrateRequest) (integrateRequest, error) {
				err := item.walk(d)
				return item, err
			})
		case 1:
			return d.Int(&req.Parallelism)
		}
		return d.Skip()
	})
	if err != nil {
		return err
	}
	// A repeated key may decode into an item already walked, so the items
	// are encoded once the whole body is read, into one buffer; canon is
	// pointed at each item's bytes once the buffer has stopped growing.
	req.buf = canonBuffers.Get()
	b := (*req.buf)[:0]
	for i := range req.Items {
		b = req.Items[i].appendSources(d, b)
	}
	off := 0
	for i := range req.Items {
		n := len(req.Items[i].canon)
		req.Items[i].canon = b[off : off+n : off+n]
		off += n
	}
	*req.buf = b
	return nil
}

// release returns the batch's canonical buffer to its free list.
func (req *batchRequest) release() { putCanon(&req.buf) }

func (req *sessionSourceRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		if schema.MatchField(key, "source") == 0 {
			return d.Tree(&req.Source)
		}
		return d.Skip()
	})
}

func (req *ingestRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "html", "interface", "source", "lexicon") {
		case 0:
			return d.String(&req.HTML)
		case 1:
			return d.String(&req.Interface)
		case 2:
			return d.Tree(&req.Source)
		case 3:
			return d.String(&req.Lexicon)
		}
		return d.Skip()
	})
}

// decodeOptions decodes the options object at the input into *o through
// encoding/json, which merges it into the options already there.
func decodeOptions(d *schema.Decoder, o *requestOptions) error {
	raw, err := d.Raw()
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, o)
}

// decodeRequest decodes the first JSON value of body into v, as
// json.Decoder.Decode would, ignoring the bytes after it.
func decodeRequest(body []byte, v any) error {
	if wr, ok := v.(wireRequest); ok {
		d := schema.NewDecoder(body)
		err := wr.decodeWire(d)
		d.Release()
		return err
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// bodyBuffers recycles request-body buffers. Every decoder copies what it
// keeps out of the body (schema.Decoder interns the strings of the trees
// it builds, appends canonical encodings to a buffer of canonBuffers, and
// encoding/json allocates its own), so a buffer is free again once its
// body is decoded.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// canonBuffers recycles the buffers integrate and batch bodies' canonical
// encodings are appended to. As the walker's scratches, it keeps four and
// drops a buffer that outgrew maxPooledCanon bytes. A request returns its
// buffer once it is answered; a flight's run, which may outlive the
// request, works on an exact-size copy that its cache entry keeps
// (pending.owned).
var canonBuffers = pool.NewFree(4, func() *[]byte { return new([]byte) })

const maxPooledCanon = 8 << 20

// putCanon returns *buf, if any, to canonBuffers and clears it.
func putCanon(buf **[]byte) {
	if *buf != nil && cap(**buf) <= maxPooledCanon {
		canonBuffers.Put(*buf)
	}
	*buf = nil
}

// readBody reads a request body whole into a buffer from bodyBuffers,
// which the caller returns there once the body is decoded. A declared
// length grows the buffer by at most presizeLimit before any byte
// arrives: a client that declares a large body must send it before the
// buffer grows to hold it.
func readBody(body io.Reader, length int64) (*bytes.Buffer, error) {
	buf := bodyBuffers.Get().(*bytes.Buffer)
	buf.Reset()
	buf.Grow(int(min(max(length, 0), presizeLimit)) + bytes.MinRead)
	_, err := buf.ReadFrom(body)
	return buf, err
}
