package schema

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
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
	sum := sha256.Sum256(b)
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], sum[:])
	return string(hx[:])
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

func appendString(b []byte, s string) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}
