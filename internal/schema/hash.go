package schema

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sort"
	"strings"
)

// CanonicalHash returns a hex-encoded digest of the tree's canonical
// form. Two trees hash equal exactly when they are structurally identical:
// same interface name, same node labels, clusters, multi-clusters,
// instances (in order — selection lists are ordered), aggregation marks
// and child order. The digest is stable across processes and releases of
// the encoding (every field is length-prefixed, so no two distinct trees
// collide by concatenation).
func (t *Tree) CanonicalHash() string {
	var buf []byte
	return t.canonicalHash(&buf)
}

// canonicalHash serializes the canonical form into *buf, reusing its
// storage, and hashes the bytes in one call.
func (t *Tree) canonicalHash(buf *[]byte) string {
	b := appendString((*buf)[:0], t.Interface)
	b = appendNode(b, t.Root)
	*buf = b
	return hexSum(b)
}

// HashLen is the length of a canonical hash: a hex SHA-256 digest.
const HashLen = 2 * sha256.Size

// hexSum returns the hex-encoded SHA-256 digest of b.
func hexSum(b []byte) string {
	var sb strings.Builder
	writeHexSum(&sb, b)
	return sb.String()
}

// writeHexSum writes the hex-encoded SHA-256 digest of b to sb. A set's
// digests written to one builder, grown to hold them all, cost one
// allocation; SplitHashes then cuts them apart.
func writeHexSum(sb *strings.Builder, b []byte) {
	sum := sha256.Sum256(b)
	var hx [HashLen]byte
	hex.Encode(hx[:], sum[:])
	sb.Write(hx[:])
}

// SplitHashes splits a concatenation of canonical hashes into them. They
// share the concatenation's memory.
func SplitHashes(hashes string) []string {
	out := make([]string, len(hashes)/HashLen)
	for i := range out {
		out[i] = hashes[i*HashLen : (i+1)*HashLen]
	}
	return out
}

// EncodeCanonical returns the trees' canonical forms, concatenated in
// slice order, and each tree's canonical hash: the bytes and digests
// TreeHashes computes, in one pass. The encoding is allocated at its exact
// size; DecodeCanonical reverses it.
func EncodeCanonical(trees []*Tree) ([]byte, []string) {
	size := 0
	for _, t := range trees {
		size += 4 + len(t.Interface) + t.Root.canonicalSize()
	}
	b := make([]byte, 0, size)
	var sums strings.Builder
	sums.Grow(HashLen * len(trees))
	for _, t := range trees {
		start := len(b)
		b = appendString(b, t.Interface)
		b = appendNode(b, t.Root)
		writeHexSum(&sums, b[start:])
	}
	return b, SplitHashes(sums.String())
}

// canonicalSize returns the length of appendNode's encoding of n.
func (n *Node) canonicalSize() int {
	if n == nil {
		return 4
	}
	size := 4 + len(n.Label) + 4 + len(n.Cluster) + 4 + 4 + 1 + 4
	for _, s := range n.Instances {
		size += 4 + len(s)
	}
	for _, s := range n.MultiClusters {
		size += 4 + len(s)
	}
	for _, c := range n.Children {
		size += c.canonicalSize()
	}
	return size
}

var errCanonical = errors.New("schema: malformed canonical encoding")

// DecodeCanonical decodes what EncodeCanonical encoded back to trees, with
// strings interned and nodes from slabs as Decoder builds them. The
// encoding does not tell an empty list from a nil one, so empty instance,
// multi-cluster and child lists decode as nil; every tree hashes as the
// one encoded did.
func DecodeCanonical(enc []byte) ([]*Tree, error) {
	d := NewDecoder(enc)
	var trees []*Tree
	for d.off < len(enc) {
		iface, err := d.canonString()
		if err != nil {
			return nil, err
		}
		root, err := d.canonNode()
		if err != nil {
			return nil, err
		}
		trees = append(trees, &Tree{Interface: iface, Root: root})
	}
	return trees, nil
}

// canonCount reads a length prefix that counts items of at least minSize
// bytes each, checking that the rest of the encoding can hold them.
func (d *Decoder) canonCount(minSize int) (int, error) {
	if len(d.data)-d.off < 4 {
		return 0, errCanonical
	}
	n := int(binary.BigEndian.Uint32(d.data[d.off:]))
	d.off += 4
	if n > (len(d.data)-d.off)/minSize {
		return 0, errCanonical
	}
	return n, nil
}

func (d *Decoder) canonString() (string, error) {
	n, err := d.canonCount(1)
	if err != nil {
		return "", err
	}
	s := d.intern(d.data[d.off : d.off+n])
	d.off += n
	return s, nil
}

func (d *Decoder) canonStrings() ([]string, error) {
	n, err := d.canonCount(4)
	if err != nil || n == 0 {
		return nil, err
	}
	ss := d.newStrings(n)
	for i := range ss {
		if ss[i], err = d.canonString(); err != nil {
			return nil, err
		}
	}
	return ss, nil
}

func (d *Decoder) canonNode() (*Node, error) {
	if len(d.data)-d.off >= 4 && binary.BigEndian.Uint32(d.data[d.off:]) == ^uint32(0) {
		d.off += 4
		return nil, nil
	}
	if d.depth == maxDepth {
		return nil, errCanonical
	}
	n := d.newNode()
	var err error
	if n.Label, err = d.canonString(); err != nil {
		return nil, err
	}
	if n.Cluster, err = d.canonString(); err != nil {
		return nil, err
	}
	if n.Instances, err = d.canonStrings(); err != nil {
		return nil, err
	}
	if n.MultiClusters, err = d.canonStrings(); err != nil {
		return nil, err
	}
	if d.off >= len(d.data) || d.data[d.off] > 1 {
		return nil, errCanonical
	}
	n.Aggregated = d.data[d.off] == 1
	d.off++
	count, err := d.canonCount(4)
	if err != nil || count == 0 {
		return n, err
	}
	n.Children = d.newPtrs(count)
	d.depth++
	for i := range n.Children {
		if n.Children[i], err = d.canonNode(); err != nil {
			return nil, err
		}
	}
	d.depth--
	return n, nil
}

// HashTrees returns a digest identifying the *set* of trees independent of
// their order in the slice: per-tree canonical digests are sorted before
// combining. Integrating the same source pool listed in a different order
// therefore yields the same hash — the property the server's result cache
// keys on.
func HashTrees(trees []*Tree) string {
	return CombineHashes(TreeHashes(trees))
}

// TreeHashes returns the canonical hash of every tree, in slice order.
// The trees share one serialization buffer.
func TreeHashes(trees []*Tree) []string {
	digests := make([]string, len(trees))
	var buf []byte
	for i, t := range trees {
		digests[i] = t.canonicalHash(&buf)
	}
	return digests
}

// CombineHashes combines per-tree canonical digests, in any order, into the
// set digest HashTrees would produce over trees with those hashes.
func CombineHashes(digests []string) string {
	sum := setSum(digests)
	return hex.EncodeToString(sum[:])
}

// setSum hashes the sorted digests, each length-prefixed the way
// appendString frames a string, from one buffer.
func setSum(digests []string) [sha256.Size]byte {
	sorted := append([]string(nil), digests...)
	sort.Strings(sorted)
	n := 0
	for _, d := range sorted {
		n += 4 + len(d)
	}
	buf := make([]byte, 0, n)
	for _, d := range sorted {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(d)))
		buf = append(buf, d...)
	}
	return sha256.Sum256(buf)
}

// CacheKey is the one definition of the key identifying an integration:
// the hex set digest of the sources' canonical hashes (in any order, see
// CombineHashes), a zero byte, and the configuration fingerprint, hashed.
// The result caches key on it, so a key that identifies a result also
// identifies every intermediate the result was built from.
func CacheKey(digests []string, fingerprint string) string {
	const setLen = 2 * sha256.Size
	set := setSum(digests)
	buf := make([]byte, setLen+1+len(fingerprint)) // buf[setLen] stays zero
	hex.Encode(buf, set[:])
	copy(buf[setLen+1:], fingerprint)
	key := sha256.Sum256(buf)
	return hex.EncodeToString(key[:])
}

func appendNode(b []byte, n *Node) []byte {
	if n == nil {
		return binary.BigEndian.AppendUint32(b, ^uint32(0))
	}
	b = appendString(b, n.Label)
	b = appendString(b, n.Cluster)
	b = appendStrings(b, n.Instances)
	b = appendStrings(b, n.MultiClusters)
	if n.Aggregated {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(n.Children)))
	for _, c := range n.Children {
		b = appendNode(b, c)
	}
	return b
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

func appendString[S string | []byte](b []byte, s S) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}
