// Package naming implements the paper's contribution: the algorithm that
// assigns meaningful, consistent labels to every node of an integrated
// query interface (§3–§6).
//
// The package is organized along the paper's structure:
//
//   - semantics.go — the semantic rules on content words (Definition 1);
//   - consistency.go — the three consistency levels between tuples of a
//     group relation (Definition 2) and the Combine operators
//     (Definition 3);
//   - partition.go — the graph-closure partitioning of a group relation
//     (§4.1.1, Proposition 1);
//   - groups.go — consistent, partially consistent and conflict-free
//     naming solutions for groups (§4.2);
//   - isolated.go — the representative-attribute-name variant for isolated
//     clusters (§4.4) with the most-descriptive rule and the instance rules
//     LI6/LI7 (§6.1);
//   - internal.go — candidate labels for internal nodes via the inference
//     rules LI1–LI5 (§5);
//   - algorithm.go — the three-phase traversal assembling a labeling for
//     the whole integrated schema tree and classifying it as consistent,
//     weakly consistent or inconsistent (Definition 8, §6).
package naming

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unicode"

	"qilabel/internal/gencache"
	"qilabel/internal/lexicon"
	"qilabel/internal/stem"
	"qilabel/internal/token"
)

// Rel is a semantic relationship between two labels per Definition 1.
type Rel int

const (
	// RelNone means none of Definition 1's relationships holds.
	RelNone Rel = iota
	// RelStringEqual: the labels are identical as (display-normalized)
	// strings, e.g. "From" string-equal "From".
	RelStringEqual
	// RelEqual: the content-word sets are identical, e.g. "Type of Job"
	// equals "Job Type".
	RelEqual
	// RelSynonym: same cardinality and the content words align by
	// equality/synonymy with at least one synonymy, e.g. "Area of Study"
	// and "Field of Work".
	RelSynonym
	// RelHypernym: the first label is more general than the second, e.g.
	// "Class" is a hypernym of "Class of Tickets".
	RelHypernym
	// RelHyponym: the first label is more specific than the second.
	RelHyponym
)

// String implements fmt.Stringer for diagnostics.
func (r Rel) String() string {
	switch r {
	case RelStringEqual:
		return "string-equal"
	case RelEqual:
		return "equal"
	case RelSynonym:
		return "synonym"
	case RelHypernym:
		return "hypernym"
	case RelHyponym:
		return "hyponym"
	default:
		return "none"
	}
}

// word is one content word of a label in both representations Definition 1
// needs: the Porter stem (for the "equality" comparisons that make
// "Preferred Airline" equal "Airline Preference") and the lexical base form
// (the key into the WordNet-substitute for synonymy and hypernymy).
type word struct {
	stem string
	base string
}

// labelWords is the content-word representation of a label.
type labelWords struct {
	display string // normalization step one
	words   []word // normalization step two, duplicate-stem free
	// conjunction marks labels containing "and"/"or"/"&"/"/", for which
	// Definition 1 does not define hypernymy.
	conjunction bool
	keys        []string // see Semantics.EquivalenceKeys
}

// Analysis is an immutable label-analysis table: the two-step normalization
// of a fixed label set, computed once and then shared read-only. Unlike a
// Semantics (whose lazily-filled cache is single-goroutine), an Analysis is
// safe for any number of concurrent readers, so one table built at the start
// of a pipeline run serves every pool worker instead of each worker
// re-analyzing the same labels into its own cold cache. Each label also
// receives a dense ID used to intern Relate memo keys.
type Analysis struct {
	lex     *lexicon.Lexicon
	byLabel map[string]*labelWords
	ids     map[string]int32
	// warm, when non-nil, is the cross-run cache the table was interned
	// through; Semantics derived from the table consult its shared Relate
	// verdicts for table-label pairs.
	warm *Warm
	// partitionProbes counts the Relate calls the blocked partitioning
	// (probeBlocks) of every Semantics derived from the table made: the
	// one mutable field, so a run's probes can be counted across workers.
	partitionProbes atomic.Int64
}

// PrecomputeAnalysis analyzes every distinct label in labels over the given
// lexicon (nil: the default embedded lexicon) into a shared table.
func PrecomputeAnalysis(lex *lexicon.Lexicon, labels []string) *Analysis {
	if lex == nil {
		lex = lexicon.Default()
	}
	a := &Analysis{
		lex:     lex,
		byLabel: make(map[string]*labelWords, len(labels)),
		ids:     make(map[string]int32, len(labels)),
	}
	for _, l := range labels {
		if _, ok := a.byLabel[l]; ok {
			continue
		}
		a.byLabel[l] = analyzeLabel(lex, l)
		a.ids[l] = int32(len(a.ids))
	}
	return a
}

// Semantics returns a fresh Semantics backed by this table: analyses of
// table labels are shared (no per-worker recomputation), labels outside the
// table fall back to a worker-local cache. Each worker of a parallel stage
// calls this once; the returned Semantics is still NOT safe for concurrent
// use, only the underlying table is.
func (a *Analysis) Semantics() *Semantics {
	s := NewSemantics(a.lex)
	s.shared = a
	s.warm = a.warm
	return s
}

// relMemoLimit bounds the per-Semantics memo of Relate verdicts (the sum
// of its two generations, see gencache), keeping long-lived Semantics —
// the long-running server's verify path, REPL-style callers — at a flat
// memory ceiling of ~2 MiB while staying maximally warm for the group
// solver's quadratic access patterns.
const relMemoLimit = 1 << 17

// Semantics evaluates Definition 1's relationships using a lexicon. It
// caches label analyses and memoizes Relate verdicts; a Semantics is NOT
// safe for concurrent use (share an Analysis across workers instead).
type Semantics struct {
	lex    *lexicon.Lexicon
	shared *Analysis // optional read-only table (nil: none)
	warm   *Warm     // optional shared cross-run verdict cache (nil: none)
	cache  map[string]*labelWords
	ids    map[string]int32          // local label IDs (negative: disjoint from table IDs)
	memo   gencache.Map[uint64, Rel] // the overlay: Relate verdicts keyed by interned label-pair IDs
	noMemo bool

	// Reusable scratch for the group solver's hot loops (a Semantics is
	// single-goroutine, so plain fields suffice): the stem set
	// Expressiveness clears per call, the byte buffer CombineClosure
	// keys combined tuples into before deciding to materialize them, and
	// the partitioning's key blocks with their members (raise,
	// probeBlocks), its per-tuple probe stamps or component sizes, and
	// each root's partition (partitions).
	expSeen  map[string]bool
	keyBuf   []byte
	blockIDs map[blockKey]int32
	members  []blockMember
	perTuple []int32
	roots    []*Partition
}

// NewSemantics creates a Semantics over the given lexicon (nil means the
// default embedded lexicon).
func NewSemantics(lex *lexicon.Lexicon) *Semantics {
	if lex == nil {
		lex = lexicon.Default()
	}
	return &Semantics{
		lex:   lex,
		cache: make(map[string]*labelWords),
		ids:   make(map[string]int32),
		memo:  gencache.NewMap[uint64, Rel](relMemoLimit),
	}
}

// NewSemanticsUnmemoized creates a Semantics whose Relate recomputes every
// verdict from scratch and whose Partitions tests every tuple pair — the
// reference path the equivalence tests and the cold-kernel benchmarks
// compare the memoized, blocked path against.
func NewSemanticsUnmemoized(lex *lexicon.Lexicon) *Semantics {
	s := NewSemantics(lex)
	s.noMemo = true
	return s
}

// Lexicon returns the lexicon the semantics consults.
func (s *Semantics) Lexicon() *lexicon.Lexicon { return s.lex }

// analyze returns the two-step normalization of a label: from the shared
// table when present, from the local cache otherwise.
func (s *Semantics) analyze(label string) *labelWords {
	if s.shared != nil {
		if lw, ok := s.shared.byLabel[label]; ok {
			return lw
		}
	}
	if lw, ok := s.cache[label]; ok {
		return lw
	}
	lw := analyzeLabel(s.lex, label)
	s.cache[label] = lw
	return lw
}

// analyzeLabel computes the two-step normalization of a label. The single
// Tokenize pass serves both the conjunction scan and the content-word
// derivation (Tokenize lower-cases internally, so tokenizing the raw label
// equals tokenizing its lower-cased form).
func analyzeLabel(lex *lexicon.Lexicon, label string) *labelWords {
	lw := &labelWords{display: token.NormalizeDisplay(label)}
	lw.conjunction = strings.ContainsAny(label, "&/")
	seen := make(map[string]bool)
	for _, tok := range token.Tokenize(label) {
		if tok == "and" || tok == "or" {
			lw.conjunction = true
		}
		if token.IsStopWord(tok) {
			continue
		}
		base := lex.BaseForm(tok)
		if token.IsStopWord(base) {
			continue
		}
		st := stem.Stem(base)
		if st == "" || seen[st] {
			continue
		}
		seen[st] = true
		lw.words = append(lw.words, word{stem: st, base: base})
	}
	lw.keys = equivalenceKeys(lex, lw)
	return lw
}

// equivalenceKeys derives a label's equivalence keys from its analysis,
// one family per way two labels can be Equivalent:
//
//   - "d:" the case-folded display form: string-equal labels have
//     EqualFold display forms, which fold to one key;
//   - "s:" the stem of every content word: equal and synonym labels align
//     every word of one label with a word of the other, and an aligned
//     pair agrees on stem, base or synset, so the first word of either
//     label puts a shared key on both (a word's stem is derived from its
//     base, so words agreeing on base agree on stem too);
//   - "y:" the synset IDs of every content word: the synonymy half of that
//     alignment, since two bases are synonyms exactly when their synset-ID
//     sets intersect (pinned by lexicon's TestSynsetIDs).
//
// The d: key, when the display form is not empty, comes first. The keys
// are substrings of one string: they share its memory instead of costing
// an allocation each.
func equivalenceKeys(lex *lexicon.Lexicon, lw *labelWords) []string {
	var b strings.Builder
	var ends []int
	var synsets []int
	var num [20]byte
	if lw.display != "" {
		b.WriteString("d:")
		b.WriteString(foldKey(lw.display))
		ends = append(ends, b.Len())
	}
	for _, w := range lw.words {
		b.WriteString("s:")
		b.WriteString(w.stem)
		ends = append(ends, b.Len())
		synsets = append(synsets, lex.SynsetIDs(w.base)...)
	}
	// Words may share a synset. Sorting dedups in O(n log n): a label comes
	// from a request body, so its word count has no small bound.
	slices.Sort(synsets)
	for _, id := range slices.Compact(synsets) {
		b.WriteString("y:")
		b.Write(strconv.AppendInt(num[:0], int64(id), 10))
		ends = append(ends, b.Len())
	}
	all := b.String()
	keys := make([]string, len(ends))
	start := 0
	for i, end := range ends {
		keys[i], start = all[start:end], end
	}
	return keys
}

// foldKey maps every rune to the smallest member of its case-folding orbit,
// so two strings are strings.EqualFold exactly when their foldKeys are
// byte-equal (ToLower is not enough: 'σ' and 'ς' fold together but lower-case
// differently).
func foldKey(s string) string {
	return strings.Map(func(r rune) rune {
		least := r
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			if f < least {
				least = f
			}
		}
		return least
	}, s)
}

// labelID interns a label for the Relate memo key: shared-table labels use
// their (non-negative) table ID, others get negative worker-local IDs. The
// sign split keeps the two ID spaces disjoint however many labels either
// side holds, which is what lets a verdict key whose halves are both
// non-negative be safely looked up in the cross-run Warm cache — such keys
// can only mean a pair of table labels, identical across runs.
func (s *Semantics) labelID(label string) int32 {
	if s.shared != nil {
		if id, ok := s.shared.ids[label]; ok {
			return id
		}
	}
	if id, ok := s.ids[label]; ok {
		return id
	}
	id := -1 - int32(len(s.ids))
	s.ids[label] = id
	return id
}

// ContentWordCount returns the number of content words of a label, the
// expressiveness measure of §4.2.1.
func (s *Semantics) ContentWordCount(label string) int {
	return len(s.analyze(label).words)
}

// ContentWords exposes the content-word stems of a label (sorted), mainly
// for LI5's subset tests and for diagnostics.
func (s *Semantics) ContentWords(label string) []string {
	lw := s.analyze(label)
	out := make([]string, len(lw.words))
	for i, w := range lw.words {
		out[i] = w.stem
	}
	sort.Strings(out)
	return out
}

// EquivalenceKeys returns the label's equivalence keys: two labels that
// are Equivalent (string-equal, equal or synonyms under Definition 1)
// always share at least one key, so a caller looking for a label's
// equivalents need only compare it with labels sharing a key. The matcher
// blocks its pairwise pass on them. The keys are computed once per
// analysis (see equivalenceKeys) and shared: callers must not modify the
// returned slice.
func (s *Semantics) EquivalenceKeys(label string) []string {
	return s.analyze(label).keys
}

// wordEqual: the tokens agree by stem or by base form.
func (s *Semantics) wordEqual(a, b word) bool {
	return a.stem == b.stem || a.base == b.base
}

// wordSynonym consults the lexicon on base forms.
func (s *Semantics) wordSynonym(a, b word) bool {
	return s.lex.Synonym(a.base, b.base)
}

// wordHypernym: a is a hypernym of b.
func (s *Semantics) wordHypernym(a, b word) bool {
	return s.lex.Hypernym(a.base, b.base)
}

// Relate computes the strongest Definition 1 relationship from a to b, in
// the precedence order string-equal, equal, synonym, hypernym, hyponym.
// Verdicts are memoized per label pair (bounded, see relMemoLimit): the
// verdict is a pure function of the two labels and the lexicon, so the memo
// can never change a result, only skip recomputing it. Callers must not
// mutate the lexicon between Relate calls on one Semantics.
func (s *Semantics) Relate(a, b string) Rel {
	if s.noMemo {
		return s.relate(a, b)
	}
	return s.relateIDs(s.labelID(a), s.labelID(b), a, b)
}

// relateIDs is Relate for labels whose IDs (labelID) the caller resolved
// beforehand: a caller relating each of its labels to many others resolves
// every ID once instead of probing the label maps twice per call.
func (s *Semantics) relateIDs(ia, ib int32, a, b string) Rel {
	if s.noMemo {
		return s.relate(a, b)
	}
	key := uint64(uint32(ia))<<32 | uint64(uint32(ib))
	if r, ok := s.memo.Get(key); ok {
		return r
	}
	// Both labels from the shared table of a warm handle: the verdict may
	// already be known from an earlier run (or a sibling worker). This is
	// the only locking touch on the hot path, and the overlay above bounds
	// it to once per distinct pair per worker per run.
	if s.warm != nil && ia >= 0 && ib >= 0 {
		r, ok := s.warm.verdicts.Get(key)
		if !ok {
			r = s.relate(a, b)
			s.warm.verdicts.Put(key, r)
		}
		s.memo.Put(key, r)
		return r
	}
	r := s.relate(a, b)
	s.memo.Put(key, r)
	return r
}

// relate is the unmemoized Definition 1 evaluation.
func (s *Semantics) relate(a, b string) Rel {
	la, lb := s.analyze(a), s.analyze(b)
	if la.display != "" && strings.EqualFold(la.display, lb.display) {
		return RelStringEqual
	}
	if len(la.words) == 0 || len(lb.words) == 0 {
		return RelNone
	}
	if s.setsEqual(la, lb) {
		return RelEqual
	}
	if s.synonymMatch(la, lb) {
		return RelSynonym
	}
	// Definition 1 excludes labels with conjunctions from hypernymy.
	if !la.conjunction && !lb.conjunction {
		if s.hypernymMatch(la, lb) {
			return RelHypernym
		}
		if s.hypernymMatch(lb, la) {
			return RelHyponym
		}
	}
	return RelNone
}

// Equivalent reports whether the two labels are string-equal, equal or
// synonyms — the relations the naming algorithm treats as "the same label"
// when collecting potential labels and detecting homonyms.
func (s *Semantics) Equivalent(a, b string) bool {
	return s.Relate(a, b).equivalent()
}

// equivalent reports whether r is one of the relations Equivalent accepts.
func (r Rel) equivalent() bool {
	switch r {
	case RelStringEqual, RelEqual, RelSynonym:
		return true
	}
	return false
}

// setsEqual implements the "equal" relation: identical content-word sets.
func (s *Semantics) setsEqual(la, lb *labelWords) bool {
	if len(la.words) != len(lb.words) {
		return false
	}
	used := make([]bool, len(lb.words))
outer:
	for _, wa := range la.words {
		for j, wb := range lb.words {
			if !used[j] && s.wordEqual(wa, wb) {
				used[j] = true
				continue outer
			}
		}
		return false
	}
	return true
}

// synonymMatch implements the "synonym" relation: n == m, all words of both
// labels participate in an equality-or-synonymy alignment, at least one
// pair being synonymy. The alignment is a perfect matching; content-word
// sets are tiny (≤ 8 words), so a backtracking search is exact and cheap.
func (s *Semantics) synonymMatch(la, lb *labelWords) bool {
	n := len(la.words)
	if n != len(lb.words) {
		return false
	}
	used := make([]bool, n)
	var try func(i int, haveSyn bool) bool
	try = func(i int, haveSyn bool) bool {
		if i == n {
			return haveSyn
		}
		wa := la.words[i]
		for j := 0; j < n; j++ {
			if used[j] {
				continue
			}
			wb := lb.words[j]
			eq := s.wordEqual(wa, wb)
			syn := !eq && s.wordSynonym(wa, wb)
			if !eq && !syn {
				continue
			}
			used[j] = true
			if try(i+1, haveSyn || syn) {
				used[j] = false
				return true
			}
			used[j] = false
		}
		return false
	}
	return try(0, false)
}

// hypernymMatch implements the "hypernym" relation from a to b: n <= m and
// every word of a relates (equality, synonymy or hypernymy) to some word of
// b, with either n < m or at least one hypernymy link.
func (s *Semantics) hypernymMatch(la, lb *labelWords) bool {
	n, m := len(la.words), len(lb.words)
	if n > m {
		return false
	}
	anyHyper := false
	for _, wa := range la.words {
		matched := false
		for _, wb := range lb.words {
			switch {
			case s.wordEqual(wa, wb):
				matched = true
			case s.wordSynonym(wa, wb):
				matched = true
			case s.wordHypernym(wa, wb):
				matched = true
				anyHyper = true
			}
			if matched {
				break
			}
		}
		if !matched {
			return false
		}
	}
	return n < m || anyHyper
}

// AtLeastAsGeneral reports whether label a is semantically at least as
// general as label b by the lexical half of Definition 5 (the structural
// half — descendant-leaf containment — is evaluated where the tree context
// is available).
func (s *Semantics) AtLeastAsGeneral(a, b string) bool {
	switch s.Relate(a, b) {
	case RelStringEqual, RelEqual, RelSynonym, RelHypernym:
		return true
	}
	return false
}
