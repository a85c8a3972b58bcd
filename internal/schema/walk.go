package schema

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"qilabel/internal/pool"
)

// Tree objects are read in two steps. The walker reads an array of trees,
// or one tree, into the Decoder's scratch: flat records whose strings are
// spans of the input (or of the text it unescaped) and whose lists are
// ranges of the scratch's arrays, with the semantics the Decoder's doc
// lists. From the scratch, AppendCanonical writes the trees' canonical
// encoding and hashes without building a Node or interning a string, and
// Tree and Trees build the trees. walkTree and walkNode are the one place
// that says what a JSON tree object means.

// span is a string the walker read: data[start:end] of the input, or
// text[^start:end] if it had to be unescaped.
type span struct{ start, end int32 }

// list is a slice the walker read: elements [at, at+n) of one of the
// scratch's arrays, whose range holds c elements (the capacity a repeated
// key decodes into); set tells an empty slice from a nil one.
type list struct {
	at, n, c int32
	set      bool
}

// rawTree and rawNode are a Tree and a Node in the scratch. A reference to
// one is its index in trees or nodes, and 0 is nil: both arrays keep a
// zero record at index 0.
type rawTree struct {
	iface span
	root  int32
}

type rawNode struct {
	label, cluster           span
	instances, multiClusters list // of strs
	children                 list // of refs
	aggregated               bool
}

// scratch is what the walker read from one input.
type scratch struct {
	text  []byte // unescaped strings
	trees []rawTree
	nodes []rawNode
	refs  []int32 // the elements of tree and child lists
	strs  []span  // the elements of instance and multi-cluster lists
	// The elements of the lists being read wait on these stacks, which
	// nested lists share (each leaves them as it found them).
	refStack  []int32
	spanStack []span
	// built pairs each tree Tree built with its record, so that a repeated
	// key decodes into the record.
	built []builtTree
}

type builtTree struct {
	tree *Tree
	ref  int32
}

// scratches recycles the scratches of released Decoders. It keeps four,
// one for each body a small daemon decodes at once (a burst beyond that
// allocates its own), and drops a scratch whose arrays outgrew
// maxPooledScratch bytes, so what it keeps stays bounded and one huge body
// does not stay resident.
var scratches = pool.NewFree(4, func() *scratch { return new(scratch) })

const maxPooledScratch = 8 << 20

// scratch returns the Decoder's scratch, taking an emptied one from the
// free list on first use.
func (d *Decoder) scratch() *scratch {
	if d.s == nil {
		s := scratches.Get()
		s.text, s.refs, s.strs = s.text[:0], s.refs[:0], s.strs[:0]
		s.refStack, s.spanStack, s.built = s.refStack[:0], s.spanStack[:0], s.built[:0]
		s.trees = append(s.trees[:0], rawTree{})
		s.nodes = append(s.nodes[:0], rawNode{})
		d.s = s
	}
	return d.s
}

// Release returns the Decoder's scratch to the free list. The Decoder
// must not be used afterwards; the trees it built and the bytes
// AppendCanonical appended refer to neither the scratch nor the input.
func (d *Decoder) Release() {
	s := d.s
	d.s, d.data = nil, nil
	if s == nil {
		return
	}
	clear(s.built)
	size := uintptr(cap(s.text)) + unsafe.Sizeof(rawTree{})*uintptr(cap(s.trees)) +
		unsafe.Sizeof(rawNode{})*uintptr(cap(s.nodes)) + 4*uintptr(cap(s.refs)+cap(s.refStack)) +
		unsafe.Sizeof(span{})*uintptr(cap(s.strs)+cap(s.spanStack))
	if size <= maxPooledScratch {
		scratches.Put(s)
	}
}

// walkable reports an error for input the scratch's 32-bit offsets cannot
// address.
func (d *Decoder) walkable() error {
	if len(d.data) > math.MaxInt32 {
		return fmt.Errorf("schema: a %d-byte input exceeds the tree decoder's 2 GiB limit", len(d.data))
	}
	return nil
}

// RawTrees is an array of trees a Decoder read into its scratch, no Node
// built: Decoder.RawTrees reads one, AppendCanonical encodes it. It is
// valid until the Decoder is released.
type RawTrees struct{ l list }

// Len returns the number of trees (null ones included).
func (ts RawTrees) Len() int { return int(ts.l.n) }

// RawTrees reads an array of trees into *dst as Trees decodes one, a
// repeated key decoding into the trees already there.
func (d *Decoder) RawTrees(dst *RawTrees) error {
	if err := d.walkable(); err != nil {
		return err
	}
	s := d.scratch()
	return walkList(d, &dst.l, &s.refs, &s.refStack, d.walkTree)
}

// walkTree reads a tree object into the record ref refers to, or into a
// new one if ref is nil, and returns the record's reference; null returns
// nil.
func (d *Decoder) walkTree(ref int32) (int32, error) {
	switch d.peek() {
	case '{':
	case 'n':
		return 0, d.literal("null")
	default:
		return ref, d.typeError("schema.Tree")
	}
	s := d.s
	if ref == 0 {
		ref = int32(len(s.trees))
		s.trees = append(s.trees, rawTree{})
	}
	return ref, d.Object(func(key []byte) error {
		switch MatchField(key, "interface", "root") {
		case 0:
			return d.walkString(&s.trees[ref].iface)
		case 1:
			root, err := d.walkNode(s.trees[ref].root)
			s.trees[ref].root = root
			return err
		}
		return d.Skip()
	})
}

// walkNode reads a node object as walkTree reads a tree. Reading a child
// list appends to s.nodes, so no pointer into it is held across one.
func (d *Decoder) walkNode(ref int32) (int32, error) {
	switch d.peek() {
	case '{':
	case 'n':
		return 0, d.literal("null")
	default:
		return ref, d.typeError("schema.Node")
	}
	s := d.s
	if ref == 0 {
		ref = int32(len(s.nodes))
		s.nodes = append(s.nodes, rawNode{})
	}
	return ref, d.Object(func(key []byte) error {
		switch MatchField(key, "label", "instances", "children", "cluster", "multiClusters", "aggregated") {
		case 0:
			return d.walkString(&s.nodes[ref].label)
		case 1:
			return walkList(d, &s.nodes[ref].instances, &s.strs, &s.spanStack, d.walkStringValue)
		case 2:
			children := s.nodes[ref].children
			err := walkList(d, &children, &s.refs, &s.refStack, d.walkNode)
			s.nodes[ref].children = children
			return err
		case 3:
			return d.walkString(&s.nodes[ref].cluster)
		case 4:
			return walkList(d, &s.nodes[ref].multiClusters, &s.strs, &s.spanStack, d.walkStringValue)
		case 5:
			return d.boolean(&s.nodes[ref].aggregated)
		}
		return d.Skip()
	})
}

// walkString reads a string into *dst; null leaves *dst as it is.
func (d *Decoder) walkString(dst *span) error {
	switch d.peek() {
	case '"':
		start := d.off + 1
		b, err := d.str()
		if err != nil {
			return err
		}
		if end := d.off - 1; end-start == len(b) && (len(b) == 0 || &b[0] == &d.data[start]) {
			*dst = span{int32(start), int32(end)}
			return nil
		}
		s := d.s
		*dst = span{^int32(len(s.text)), int32(len(s.text) + len(b))}
		s.text = append(s.text, b...)
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.typeError("string")
}

// walkStringValue is walkString as a list element reader.
func (d *Decoder) walkStringValue(v span) (span, error) {
	err := d.walkString(&v)
	return v, err
}

// walkList reads an array into the list *l of *arr with DecodeSlice's
// semantics: null sets it to nil and [] to an empty non-nil list; element
// i is read into what the list's range already holds at i, within its
// capacity; a list longer than its capacity moves to a new range at the
// end of *arr. elem reads the element at the input into the value it is
// given and returns the result.
func walkList[T any](d *Decoder, l *list, arr, stack *[]T, elem func(T) (T, error)) error {
	switch d.peek() {
	case '[':
	case 'n':
		*l = list{}
		return d.literal("null")
	default:
		return d.typeError("array")
	}
	if err := d.open(); err != nil {
		return err
	}
	old := *l
	base, n := len(*stack), int32(0)
	if d.peek() != ']' {
		for {
			var v T
			if n < old.c {
				v = (*arr)[old.at+n]
			}
			v, err := elem(v)
			if err != nil {
				return err
			}
			*stack = append(*stack, v)
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
	items := (*stack)[base:]
	switch {
	case n == 0:
		*l = list{set: true}
	case n <= old.c:
		copy((*arr)[old.at:], items)
		*l = list{at: old.at, n: n, c: old.c, set: true}
	default:
		at := int32(len(*arr))
		*arr = append(*arr, items...)
		*l = list{at: at, n: n, c: n, set: true}
	}
	*stack = (*stack)[:base]
	return nil
}

// bytes returns a span's bytes.
func (d *Decoder) bytes(sp span) []byte {
	if sp.start < 0 {
		return d.s.text[^sp.start:sp.end]
	}
	return d.data[sp.start:sp.end]
}

// ---- canonical encoding -------------------------------------------------

// AppendCanonical appends the canonical encoding of the trees ts holds to
// b, as EncodeCanonical encodes the trees Trees would build from the same
// input, and returns the extended buffer and each tree's canonical hash.
// It builds no Node and interns no string, and the hashes share one
// string. A null tree has no encoding: null is the index of the first
// one, or -1, and without it the encoding is partial and hashes nil.
func (d *Decoder) AppendCanonical(b []byte, ts RawTrees) (out []byte, hashes []string, null int) {
	if ts.l.n == 0 {
		return b, nil, -1
	}
	s := d.s
	var sums strings.Builder
	sums.Grow(HashLen * int(ts.l.n))
	for i, ref := range s.refs[ts.l.at : ts.l.at+ts.l.n] {
		if ref == 0 {
			return b, nil, i
		}
		start := len(b)
		b = appendString(b, d.bytes(s.trees[ref].iface))
		b = d.appendRawNode(b, s.trees[ref].root)
		writeHexSum(&sums, b[start:])
	}
	return b, SplitHashes(sums.String()), -1
}

// appendRawNode is appendNode over a record of the scratch.
func (d *Decoder) appendRawNode(b []byte, ref int32) []byte {
	if ref == 0 {
		return binary.BigEndian.AppendUint32(b, ^uint32(0))
	}
	s := d.s
	n := &s.nodes[ref]
	b = appendString(b, d.bytes(n.label))
	b = appendString(b, d.bytes(n.cluster))
	b = d.appendSpans(b, n.instances)
	b = d.appendSpans(b, n.multiClusters)
	if n.aggregated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(n.children.n))
	for _, c := range s.refs[n.children.at : n.children.at+n.children.n] {
		b = d.appendRawNode(b, c)
	}
	return b
}

// appendSpans is appendStrings over a list of the scratch.
func (d *Decoder) appendSpans(b []byte, l list) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(l.n))
	for _, sp := range d.s.strs[l.at : l.at+l.n] {
		b = appendString(b, d.bytes(sp))
	}
	return b
}

// ---- trees --------------------------------------------------------------

// Trees decodes an array of trees into *dst, which it replaces: the trees
// json.Unmarshal builds into a nil slice.
func (d *Decoder) Trees(dst *[]*Tree) error {
	var ts RawTrees
	if err := d.RawTrees(&ts); err != nil {
		return err
	}
	*dst = nil
	if ts.l.set {
		*dst = make([]*Tree, ts.l.n)
		for i, ref := range d.s.refs[ts.l.at : ts.l.at+ts.l.n] {
			(*dst)[i] = d.buildTree(ref)
		}
	}
	return nil
}

// Tree decodes a tree object into **dst: into the tree there if this
// Decoder built it (a repeated key), else into a new one; null sets *dst
// to nil.
func (d *Decoder) Tree(dst **Tree) error {
	if err := d.walkable(); err != nil {
		return err
	}
	s := d.scratch()
	var ref int32
	k := -1
	if *dst != nil {
		k = slices.IndexFunc(s.built, func(b builtTree) bool { return b.tree == *dst })
	}
	if k >= 0 {
		ref = s.built[k].ref
	}
	ref, err := d.walkTree(ref)
	if err != nil {
		return err
	}
	*dst = d.buildTree(ref)
	if k >= 0 {
		s.built[k] = builtTree{*dst, ref}
	} else if ref != 0 {
		s.built = append(s.built, builtTree{*dst, ref})
	}
	return nil
}

// buildTree builds the tree a record holds, strings interned and nodes
// from the slabs.
func (d *Decoder) buildTree(ref int32) *Tree {
	if ref == 0 {
		return nil
	}
	t := d.s.trees[ref]
	return &Tree{Interface: d.intern(d.bytes(t.iface)), Root: d.buildNode(t.root)}
}

func (d *Decoder) buildNode(ref int32) *Node {
	if ref == 0 {
		return nil
	}
	s := d.s
	r := &s.nodes[ref]
	n := d.newNode()
	n.Label = d.intern(d.bytes(r.label))
	n.Cluster = d.intern(d.bytes(r.cluster))
	n.Instances = d.buildStrings(r.instances)
	n.MultiClusters = d.buildStrings(r.multiClusters)
	n.Aggregated = r.aggregated
	switch {
	case !r.children.set:
	case r.children.n == 0:
		n.Children = []*Node{}
	default:
		n.Children = d.newPtrs(int(r.children.n))
		for i, c := range s.refs[r.children.at : r.children.at+r.children.n] {
			n.Children[i] = d.buildNode(c)
		}
	}
	return n
}

func (d *Decoder) buildStrings(l list) []string {
	switch {
	case !l.set:
		return nil
	case l.n == 0:
		return []string{}
	}
	ss := d.newStrings(int(l.n))
	for i, sp := range d.s.strs[l.at : l.at+l.n] {
		ss[i] = d.intern(d.bytes(sp))
	}
	return ss
}
