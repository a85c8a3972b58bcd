package server

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"

	"qilabel/internal/schema"
)

// Request bodies that carry trees (/v1/integrate, /v1/integrate/batch,
// session add and update, and /v1/ingest) are walked by hand around
// schema.Decoder, which decodes the trees in one pass without reflection.
// The walkers keep json.Decoder's semantics, which every other body still
// decodes with: the first JSON value of the body is decoded and any bytes
// after it are ignored, keys match fields exactly and then under
// bytes.EqualFold, unknown keys are skipped, a repeated key decodes into
// the value already there, and null leaves a field as it is (a pointer or
// slice becomes nil). The small options object goes to encoding/json as a
// raw byte span.

// presizeLimit caps the buffer a declared Content-Length reserves.
const presizeLimit = 64 << 10

// wireRequest is a request body that carries trees.
type wireRequest interface {
	decodeWire(d *schema.Decoder) error
}

func (req *integrateRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "sources", "domain", "options") {
		case 0:
			return d.Trees(&req.Sources)
		case 1:
			return d.String(&req.Domain)
		case 2:
			return decodeOptions(d, &req.Options)
		}
		return d.Skip()
	})
}

func (req *batchRequest) decodeWire(d *schema.Decoder) error {
	return d.Object(func(key []byte) error {
		switch schema.MatchField(key, "items", "parallelism") {
		case 0:
			return schema.DecodeSlice(d, &req.Items, func(item integrateRequest) (integrateRequest, error) {
				err := item.decodeWire(d)
				return item, err
			})
		case 1:
			return d.Int(&req.Parallelism)
		}
		return d.Skip()
	})
}

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
		return wr.decodeWire(schema.NewDecoder(body))
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// bodyBuffers recycles request-body buffers. Every decoder copies what it
// keeps out of the body (schema.Decoder interns its strings and
// encoding/json allocates its own), so a buffer is free again once its
// body is decoded.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

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
