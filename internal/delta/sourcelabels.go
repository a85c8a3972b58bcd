// Per-source label memo: the third layer of the warm engine. The intern
// cache (naming.Warm) amortizes analyzing a label; this memo amortizes
// *finding* the labels — re-submitted sources (batch dedupe misses, session
// rebuilds, overlapping corpora) skip the tree walk and per-occurrence
// dedup entirely and contribute their cached distinct-label list.
package delta

import (
	"strings"

	"qilabel/internal/gencache"
	"qilabel/internal/schema"
)

// SourceLabelCap bounds the trees a source-label table remembers.
const SourceLabelCap = 4096

// sourceLabels returns the distinct labels the (expanded) tree whose
// pre-expansion canonical hash is hash contributes to a run's analysis
// table, from the memo when one is given. The list is a pure function of
// the tree content the hash covers, so reuse cannot change which labels a
// run analyzes — only skip re-collecting them. The returned slice is
// shared and must not be mutated.
func sourceLabels(memo *gencache.Table[string, []string], t *schema.Tree, hash string, useMatcher bool) []string {
	if memo == nil {
		return treeLabels(t, useMatcher)
	}
	if ls, ok := memo.Get(hash); ok {
		return ls
	}
	ls := treeLabels(t, useMatcher)
	memo.Put(hash, ls)
	return ls
}

// treeLabels collects the distinct labels one (expanded) source tree feeds
// the run's analysis table: raw node labels (the naming phases) plus, when
// the matcher runs, the trimmed leaf labels its similarity signals compare.
// First-appearance order is preserved so the cold path's dense analysis IDs
// come out identical to an unmemoized collection.
func treeLabels(t *schema.Tree, useMatcher bool) []string {
	var labels []string
	seen := make(map[string]struct{})
	add := func(l string) {
		if _, ok := seen[l]; !ok {
			seen[l] = struct{}{}
			labels = append(labels, l)
		}
	}
	t.Root.Walk(func(n *schema.Node) bool {
		if n.Label != "" {
			add(n.Label)
			if useMatcher && n.IsLeaf() {
				if tr := strings.TrimSpace(n.Label); tr != n.Label && tr != "" {
					add(tr)
				}
			}
		}
		return true
	})
	return labels
}
