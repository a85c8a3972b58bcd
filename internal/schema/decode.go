package schema

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit: a value may hold at most this
// many open objects and arrays at once.
const maxDepth = 10000

// Decoder reads JSON from one byte slice in one pass, without reflection:
// the tree wire format (what EncodeTrees writes and encoding/json reads
// into Tree) and the few scalars of the envelopes around it. It accepts
// and rejects exactly the input encoding/json does and builds the values
// encoding/json builds:
//
//   - an object key selects the field its name equals, else the first
//     field equal under bytes.EqualFold; other keys are skipped, but their
//     values must still be valid JSON;
//   - a repeated key decodes into the value already there (see
//     DecodeSlice for how slices reuse their elements);
//   - null leaves a string or bool as it is and sets a pointer or a slice
//     to nil; [] is an empty non-nil slice;
//   - strings take every escape, surrogate pairs decode to one rune, and
//     lone surrogates and invalid UTF-8 read as U+FFFD;
//   - a value of the wrong type is an error, and so is nesting deeper than
//     encoding/json's 10,000 levels.
//
// Trees are read into a pooled scratch first (see walk.go), from which
// AppendCanonical encodes them without building them and Tree and Trees
// build them. Built strings are copied out of the input (none refers to
// it) and interned per Decoder; nodes and their slices come from slabs. A
// Decoder is not safe for concurrent use.
type Decoder struct {
	data  []byte
	off   int
	depth int

	strs map[string]string // interned strings
	esc  []byte            // unescaped string bytes
	s    *scratch          // what the walker read; nil until it runs

	// Slabs the next values come from, each refilled with a chunk of the
	// current chunk size.
	chunk    int
	nodeSlab []Node
	ptrSlab  []*Node
	strSlab  []string
}

// NewDecoder returns a Decoder reading data, which it never modifies.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data, chunk: 16}
}

// ---- errors -------------------------------------------------------------

func (d *Decoder) syntaxError(what string) error {
	if d.off >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[d.off], what, d.off)
}

// typeError rejects the value at the input for a destination of the named
// type. A byte no JSON value starts with is a syntax error instead.
func (d *Decoder) typeError(want string) error {
	var got string
	switch d.peek() {
	case '{':
		got = "object"
	case '[':
		got = "array"
	case '"':
		got = "string"
	case 't', 'f':
		got = "bool"
	case '-', '0', '1', '2', '3', '4', '5', '6', '7', '8', '9':
		got = "number"
	default:
		return d.syntaxError("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode JSON %s into %s at offset %d", got, want, d.off)
}

// ---- scanning -----------------------------------------------------------

// peek skips white space and returns the next byte, or 0 at the end.
func (d *Decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// open consumes the '{' or '[' at the input, one level deeper.
func (d *Decoder) open() error {
	if d.depth == maxDepth {
		return fmt.Errorf("JSON nested deeper than %d levels at offset %d", maxDepth, d.off)
	}
	d.depth++
	d.off++
	return nil
}

// literal consumes the literal word (true, false or null) at the input.
func (d *Decoder) literal(word string) error {
	rest := d.data[d.off:]
	if len(rest) >= len(word) && string(rest[:len(word)]) == word {
		d.off += len(word)
		return nil
	}
	for i := 0; i < len(rest) && i < len(word); i++ {
		if rest[i] != word[i] {
			d.off += i
			return d.syntaxError("in literal " + word)
		}
	}
	d.off = len(d.data)
	return d.syntaxError("")
}

// number consumes the number at the input and returns its bytes.
func (d *Decoder) number() ([]byte, error) {
	start := d.off
	digits := func() bool {
		n := d.off
		for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
			d.off++
		}
		return d.off > n
	}
	if d.off < len(d.data) && d.data[d.off] == '-' {
		d.off++
	}
	switch {
	case d.off < len(d.data) && d.data[d.off] == '0':
		d.off++
	case !digits():
		return nil, d.syntaxError("in numeric literal")
	}
	if d.off < len(d.data) && d.data[d.off] == '.' {
		d.off++
		if !digits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if d.off < len(d.data) && (d.data[d.off] == 'e' || d.data[d.off] == 'E') {
		d.off++
		if d.off < len(d.data) && (d.data[d.off] == '+' || d.data[d.off] == '-') {
			d.off++
		}
		if !digits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	return d.data[start:d.off], nil
}

// plain marks the bytes a string may hold as they are: ASCII, but for
// control characters, the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str consumes the string at the input and returns its unescaped bytes,
// which alias the input or the escape buffer and stay valid only until
// the next string is read.
func (d *Decoder) str() ([]byte, error) {
	d.off++ // the opening quote
	start := d.off
	for i := start; i < len(d.data); {
		c := d.data[i]
		if plain[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			d.off = i + 1
			return d.data[start:i], nil
		case c == '\\' || c < ' ':
			return d.strSlow(start, i)
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				return d.strSlow(start, i)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("")
}

// strSlow finishes a string from data[i] on, data[start:i] being plain,
// unescaping into the escape buffer as encoding/json's unquote does.
func (d *Decoder) strSlow(start, i int) ([]byte, error) {
	b := append(d.esc[:0], d.data[start:i]...)
	defer func() { d.esc = b[:0] }()
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c == '\\':
			if i+1 >= len(d.data) {
				d.off = len(d.data)
				return nil, d.syntaxError("")
			}
			switch e := d.data[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, err := d.hex4(i + 2)
				if err != nil {
					return nil, err
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// A \u escape of the pair's other half completes it;
					// anything else leaves a lone surrogate, read as U+FFFD.
					if r2, ok := d.escapedRune(i); ok {
						if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
							b = utf8.AppendRune(b, dec)
							i += 6
							continue
						}
					}
					r = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				d.off = i + 1
				return nil, d.syntaxError("in string escape code")
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			b = utf8.AppendRune(b, r) // invalid UTF-8 decodes as U+FFFD
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("")
}

// hex4 reads the four hex digits of a \u escape at data[i:].
func (d *Decoder) hex4(i int) (rune, error) {
	var r rune
	for k := i; k < i+4; k++ {
		if k >= len(d.data) {
			d.off = len(d.data)
			return 0, d.syntaxError("")
		}
		c := d.data[k]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			d.off = k
			return 0, d.syntaxError("in \\u hexadecimal character escape")
		}
		r = r<<4 | rune(c)
	}
	return r, nil
}

// escapedRune reports the rune of a well-formed \u escape at data[i:].
func (d *Decoder) escapedRune(i int) (rune, bool) {
	if i+6 > len(d.data) || d.data[i] != '\\' || d.data[i+1] != 'u' {
		return 0, false
	}
	off := d.off
	r, err := d.hex4(i + 2)
	d.off = off
	return r, err == nil
}

// ---- values -------------------------------------------------------------

// intern returns b as a string, one copy per distinct value.
func (d *Decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.strs[string(b)]; ok {
		return s
	}
	if d.strs == nil {
		d.strs = make(map[string]string)
	}
	s := string(b)
	d.strs[s] = s
	return s
}

// Object decodes the object at the input. It calls field once per key,
// in input order, with the key unescaped and the input at the key's
// value, which field must consume; key stays valid only until field reads
// a string. null is accepted and calls nothing; any other value is an
// error.
func (d *Decoder) Object(field func(key []byte) error) error {
	switch d.peek() {
	case '{':
	case 'n':
		return d.literal("null")
	default:
		return d.typeError("object")
	}
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.off++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxError("after object key")
		}
		d.off++
		if err := field(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.off++
		case '}':
			d.off++
			d.depth--
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// MatchField returns the index of the field an object key selects, the
// way encoding/json matches keys to struct fields: the first name equal to
// key, else the first equal under bytes.EqualFold, else -1.
func MatchField(key []byte, names ...string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// Skip consumes the value at the input, which must be valid JSON.
func (d *Decoder) Skip() error {
	switch c := d.peek(); c {
	case '{':
		return d.Object(func([]byte) error { return d.Skip() })
	case '[':
		return DecodeSlice(d, nil, func(v struct{}) (struct{}, error) { return v, d.Skip() })
	case '"':
		_, err := d.str()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		if c == '-' || '0' <= c && c <= '9' {
			_, err := d.number()
			return err
		}
		return d.syntaxError("looking for beginning of value")
	}
}

// Raw consumes the value at the input, which must be valid JSON, and
// returns its bytes: a caller may hand a small value to encoding/json.
func (d *Decoder) Raw() ([]byte, error) {
	d.peek()
	start := d.off
	if err := d.Skip(); err != nil {
		return nil, err
	}
	return d.data[start:d.off], nil
}

// String decodes a string into *dst; null leaves *dst as it is.
func (d *Decoder) String(dst *string) error {
	switch d.peek() {
	case '"':
		b, err := d.str()
		if err != nil {
			return err
		}
		*dst = d.intern(b)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeError("string")
}

// boolean decodes true or false into *dst; null leaves *dst as it is.
func (d *Decoder) boolean(dst *bool) error {
	switch d.peek() {
	case 't':
		if err := d.literal("true"); err != nil {
			return err
		}
		*dst = true
		return nil
	case 'f':
		if err := d.literal("false"); err != nil {
			return err
		}
		*dst = false
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeError("bool")
}

// Int decodes an integer into *dst; null leaves *dst as it is. A number
// with a fraction or an exponent, or one int cannot hold, is an error.
func (d *Decoder) Int(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return d.typeError("int")
	}
	start := d.off
	num, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
	if err != nil {
		d.off = start
		return fmt.Errorf("cannot decode JSON number %s into int at offset %d", num, start)
	}
	*dst = int(v)
	return nil
}

// end reports an error unless only white space follows the value read,
// as json.Unmarshal requires.
func (d *Decoder) end() error {
	if d.peek() != 0 || d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return nil
}

// DecodeSlice decodes an array into *dst with encoding/json's slice
// semantics: null sets *dst to nil and [] to an empty non-nil slice;
// element i decodes into what the backing array of *dst already holds at
// i, within its capacity (so a repeated key reuses the elements, and the
// pointers, of the value before it); the slice ends at the last element
// read. elem decodes the element at the input into the value it is given
// and returns the result. A nil dst skips the elements' values.
func DecodeSlice[T any](d *Decoder, dst *[]T, elem func(T) (T, error)) error {
	switch d.peek() {
	case '[':
	case 'n':
		if dst != nil {
			*dst = nil
		}
		return d.literal("null")
	default:
		return d.typeError("array")
	}
	if err := d.open(); err != nil {
		return err
	}
	var old, items []T
	if dst != nil {
		old = (*dst)[:cap(*dst)]
	}
	n := 0
	if d.peek() != ']' {
		for {
			var v T
			if n < len(old) {
				v = old[n]
			}
			v, err := elem(v)
			if err != nil {
				return err
			}
			if dst != nil {
				items = append(items, v)
			}
			n++
			if c := d.peek(); c == ']' {
				break
			} else if c != ',' {
				return d.syntaxError("after array element")
			}
			d.off++
		}
	}
	d.off++
	d.depth--
	switch {
	case dst == nil:
	case n == 0:
		*dst = []T{}
	case n <= len(old):
		copy(old, items)
		*dst = old[:n]
	default:
		*dst = items
	}
	return nil
}

// ---- slabs --------------------------------------------------------------

// grow returns the size of the next slab chunk for a request of n values:
// chunks double from 16 to 1024, so a small body allocates little and a
// large one few times.
func (d *Decoder) grow(n int) int {
	size := d.chunk
	if d.chunk < 1024 {
		d.chunk *= 2
	}
	return max(size, n)
}

func (d *Decoder) newNode() *Node {
	if len(d.nodeSlab) == 0 {
		d.nodeSlab = make([]Node, d.grow(1))
	}
	n := &d.nodeSlab[0]
	d.nodeSlab = d.nodeSlab[1:]
	return n
}

// newPtrs and newStrings cut an n-element slice, capacity n, from a slab.
func (d *Decoder) newPtrs(n int) []*Node {
	if len(d.ptrSlab) < n {
		d.ptrSlab = make([]*Node, d.grow(n))
	}
	s := d.ptrSlab[:n:n]
	d.ptrSlab = d.ptrSlab[n:]
	return s
}

func (d *Decoder) newStrings(n int) []string {
	if len(d.strSlab) < n {
		d.strSlab = make([]string, d.grow(n))
	}
	s := d.strSlab[:n:n]
	d.strSlab = d.strSlab[n:]
	return s
}
