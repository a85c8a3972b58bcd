package qilabel

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/extract"
	"qilabel/internal/lexicon"
	"qilabel/internal/merge"
	"qilabel/internal/metrics"
	"qilabel/internal/naming"
	"qilabel/internal/render"
	"qilabel/internal/schema"
	"qilabel/internal/translate"
)

// Tree is the ordered schema tree of one query interface. Leaves are
// fields, internal nodes are (super)groups; see the schema package for the
// full API (construction helpers, traversals, JSON encoding).
type Tree = schema.Tree

// Node is a node of a schema tree.
type Node = schema.Node

// Lexicon is the lexical knowledge base consulted for synonymy and
// hypernymy (the WordNet substitute).
type Lexicon = lexicon.Lexicon

// Class is the Definition 8 classification of a labeled integrated
// interface.
type Class = naming.Class

// Classification values.
const (
	Consistent       = naming.ClassConsistent
	WeaklyConsistent = naming.ClassWeaklyConsistent
	Inconsistent     = naming.ClassInconsistent
)

// NewField constructs a field (leaf) node.
func NewField(label, cluster string, instances ...string) *Node {
	return schema.NewField(label, cluster, instances...)
}

// NewMultiField constructs a field participating in a 1:m correspondence
// (one source field standing for several integrated fields, like the
// "Passengers" example of the paper).
func NewMultiField(label string, clusters ...string) *Node {
	return schema.NewMultiField(label, clusters...)
}

// NewGroup constructs an internal (group) node.
func NewGroup(label string, children ...*Node) *Node {
	return schema.NewGroup(label, children...)
}

// NewTree constructs the schema tree of the named interface.
func NewTree(iface string, rootChildren ...*Node) *Tree {
	return schema.NewTree(iface, rootChildren...)
}

// NewLexicon returns an empty lexical knowledge base to extend and pass
// via WithLexicon.
func NewLexicon() *Lexicon { return lexicon.New() }

// DefaultLexicon returns the embedded knowledge base (shared, read-only).
// Call Clone on it before extending it.
func DefaultLexicon() *Lexicon { return lexicon.Default() }

// DecodeLexicon parses a lexicon from its JSON form (synsets, hypernym
// edges, irregular inflections, vocabulary; see Lexicon.EncodeJSON).
func DecodeLexicon(data []byte) (*Lexicon, error) { return lexicon.DecodeJSON(data) }

// StageEvent reports the completion of one pipeline stage to an observer
// installed with WithObserver (or Config.Observer): which stage ran, how
// many units it processed and how long it took. Every pipeline run emits
// them, whether an IntegrateContext call or a Session operation (see
// Session). Stage names are stable: "validate" (source validation and
// deep copy; units = source trees), "match" (cluster recomputation, only
// with the matcher enabled; units = clusters formed), "merge" (structural
// integration; units = clusters) and "naming" (the labeling passes; units
// = groups + internal nodes).
type StageEvent struct {
	Stage    string
	Units    int
	Duration time.Duration
}

// Config is the canonical, exported form of every Integrate setting. The
// zero value is the default behavior (trust cluster annotations, instance
// rules on, all three consistency levels, no frequency cutoff, GOMAXPROCS
// parallelism). Pass a whole Config with WithConfig, or build one
// incrementally with the With* options — each option is a thin wrapper
// writing one field, so the two styles can never drift apart.
type Config struct {
	// Lexicon replaces the embedded lexical knowledge base (nil: default).
	Lexicon *Lexicon
	// UseMatcher recomputes the field clusters from labels and instances
	// instead of trusting the sources' cluster annotations.
	UseMatcher bool
	// DisableInstances turns the instance-based inference rules (LI 6 and
	// LI 7 of the paper) off.
	DisableInstances bool
	// MaxLevel caps the consistency levels the group solver tries:
	// 1 = plain string equality only, 2 = +content-word equality,
	// 3 = +synonymy. Zero means all three (the default).
	MaxLevel int
	// MinFrequency drops fields appearing on fewer than this many source
	// interfaces before labeling (0 or 1: keep everything).
	MinFrequency int
	// Parallelism bounds the worker pool the parallel pipeline stages (the
	// matcher's pairwise pass, the naming group solver and candidate
	// derivation) fan out over: 0 = GOMAXPROCS, 1 = serial. The setting
	// never changes the output — parallel and serial runs produce identical
	// labelings — so it is excluded from Fingerprint and CacheKey.
	Parallelism int
	// Observer, when non-nil, receives one StageEvent per completed
	// pipeline stage, synchronously on the calling goroutine. Excluded from
	// Fingerprint and CacheKey.
	Observer func(StageEvent)

	// disableWarmCache turns off the Integrator's cross-run warm cache
	// (interned label analyses with their equivalence keys, shared Relate
	// verdicts). It is also the only cache a Session reuses work through,
	// so with it off every session delta recomputes in full. Unexported and
	// test-only — the warm-equivalence tests compare warm runs against this
	// cold path, and the cold benchmarks and allocation budgets measure it.
	// The cache stores pure functions of the labels and the lexicon, so the
	// setting never changes a result and is excluded from Fingerprint.
	disableWarmCache bool

	// referenceKernels routes the pipeline through the unoptimized
	// reference kernels: the matcher's exhaustive pairwise pass instead of
	// the block-key index, unmemoized Relate without the shared analysis
	// table, and the map-based internal-node candidate derivation instead
	// of the indexed one. Unexported and test-only — the kernel-equivalence
	// tests pin the optimized pipeline against this path byte for byte. It
	// cannot change the output, so it is excluded from Fingerprint.
	referenceKernels bool
}

// Validate checks the configuration: MaxLevel must be 0–3, MinFrequency
// and Parallelism non-negative. Integrate rejects invalid configurations
// before touching the sources.
func (c Config) Validate() error {
	if c.MaxLevel < 0 || c.MaxLevel > int(naming.LevelSynonymy) {
		return fmt.Errorf("qilabel: MaxLevel %d out of range 0-%d", c.MaxLevel, int(naming.LevelSynonymy))
	}
	if c.MinFrequency < 0 {
		return fmt.Errorf("qilabel: negative MinFrequency %d", c.MinFrequency)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("qilabel: negative Parallelism %d", c.Parallelism)
	}
	return nil
}

// Fingerprint renders the behavior-affecting part of the configuration as
// a canonical string: which lexicon (the embedded default, or the content
// address of a custom one), whether the matcher and the instance rules run,
// the consistency-level cap and the frequency cutoff. Two configurations
// with the same fingerprint make Integrate behave identically on any
// input. Parallelism and Observer do not participate: they cannot change
// the labeling, only how fast it is computed and what is reported about it.
//
// The lexicon component is Lexicon.VersionID — a hash of the canonical
// serialization, not the insertion-ordered wire form — so two tenants
// holding the same lexical facts share one fingerprint (and one cache
// namespace) while any factual difference separates them, deterministically
// across processes. A lexicon whose content address is the embedded
// default's is the default and fingerprints as such, the same resolution
// qilabeld applies to a lexicon selection.
func (c Config) Fingerprint() string {
	lex := "default"
	if c.Lexicon != nil {
		if id := c.Lexicon.VersionID(); id != lexicon.Default().VersionID() {
			lex = id
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "lexicon=%s matcher=%t instances=%t maxLevel=%d minFreq=%d",
		lex, c.UseMatcher, !c.DisableInstances, c.MaxLevel, c.MinFrequency)
	return b.String()
}

// Option configures Integrate. Each option writes one Config field; see
// Config for the full inventory and defaults.
type Option func(*Config)

// WithConfig replaces the whole configuration with c. Later options still
// apply on top of it.
func WithConfig(c Config) Option { return func(dst *Config) { *dst = c } }

// WithLexicon supplies a custom lexical knowledge base.
func WithLexicon(l *Lexicon) Option { return func(c *Config) { c.Lexicon = l } }

// WithMatcher recomputes the field clusters from labels and instances
// instead of trusting the sources' cluster annotations.
func WithMatcher() Option { return func(c *Config) { c.UseMatcher = true } }

// WithoutInstances disables the instance-based inference rules (LI 6 and
// LI 7 of the paper).
func WithoutInstances() Option { return func(c *Config) { c.DisableInstances = true } }

// WithMaxLevel caps the consistency levels the group solver tries:
// 1 = plain string equality only, 2 = +content-word equality,
// 3 = +synonymy (the default). Used for ablation studies.
func WithMaxLevel(level int) Option {
	return func(c *Config) { c.MaxLevel = level }
}

// WithMinFrequency drops fields appearing on fewer than n source
// interfaces from the integrated interface before labeling. The paper's
// survey found that every field users flagged as confusing had source
// frequency 1 ("too specific to be included in the global interface");
// pruning them implements the improvement §7 proposes.
func WithMinFrequency(n int) Option {
	return func(c *Config) { c.MinFrequency = n }
}

// WithParallelism bounds the worker pool of the parallel pipeline stages
// (0 = GOMAXPROCS, 1 = serial). Never affects the resulting labeling.
func WithParallelism(n int) Option {
	return func(c *Config) { c.Parallelism = n }
}

// WithObserver installs a per-stage observer; see StageEvent.
func WithObserver(fn func(StageEvent)) Option {
	return func(c *Config) { c.Observer = fn }
}

// Result is the outcome of integrating and labeling a set of interfaces.
type Result struct {
	// Tree is the labeled integrated schema tree.
	Tree *Tree
	// Class is the Definition 8 classification.
	Class Class
	// Labels maps every cluster name to the label its integrated field
	// received ("" when the algorithm could not assign one).
	Labels map[string]string

	// Mapping exposes the §2.1 cluster mapping the integration is built
	// on: one cluster per integrated field, each holding the member leaf
	// every source interface supplies for it. The discovery service's
	// domain listings are derived from it.
	Mapping *cluster.Mapping
	// Merge exposes the structural integration (groups, isolated
	// clusters, per-cluster leaves).
	Merge *merge.Result
	// Naming exposes the full naming report (group solutions, candidate
	// labels per internal node, inference-rule counters).
	Naming *naming.Result

	// lex is the lexicon the result was built with (nil: the embedded
	// default), retained so Verify re-checks with the same semantics.
	lex *lexicon.Lexicon
	// translation is the translation index of Merge.Sources, projected
	// from the run's table by the pipeline.
	translation *translate.Index
}

// Integrate matches (if requested), merges and labels the given source
// interfaces, returning the labeled integrated interface. The sources are
// deep-copied; the inputs are never modified. Integrate is
// IntegrateContext with a background context.
func Integrate(sources []*Tree, opts ...Option) (*Result, error) {
	return IntegrateContext(context.Background(), sources, opts...)
}

// IntegrateContext runs the pipeline under a context: cancellation
// checkpoints inside every stage — per matcher row, per merge union step,
// per solver group and per internal node — make the computation return
// ctx.Err() promptly once the context is canceled or its deadline passes,
// freeing the calling worker instead of burning it on an abandoned
// request. The embarrassingly-parallel stages fan out over
// Config.Parallelism workers; parallel and serial runs produce identical
// results. A nil ctx is treated as context.Background().
//
// IntegrateContext is a thin wrapper constructing a throwaway Integrator
// per call; callers integrating repeatedly with the same options should
// hold a NewIntegrator handle to reuse its warm cache and cached
// fingerprint.
func IntegrateContext(ctx context.Context, sources []*Tree, opts ...Option) (*Result, error) {
	if len(sources) == 0 {
		return nil, errors.New("qilabel: no source interfaces")
	}
	ig, err := newIntegratorFromOptions(opts)
	if err != nil {
		return nil, err
	}
	return ig.IntegrateContext(ctx, sources)
}

// BatchItem is the outcome of one source-tree set in an IntegrateBatch
// call.
type BatchItem struct {
	// Index is the set's position in the input.
	Index int
	// Key is the CacheKey of the set under the call's options.
	Key string
	// Shared reports that the set was a duplicate (same Key) of an earlier
	// set and shares that set's Result without a pipeline run of its own.
	Shared bool
	// Result is the integration outcome; nil when Err is set.
	Result *Result
	// Err is this set's failure. Errors are isolated: one invalid set
	// never fails the batch.
	Err error
}

// IntegrateBatch integrates many source-tree sets in one call — the
// domain-sized workload of form-integration pipelines that process a
// corpus of interfaces at a time. Sets are deduplicated by CacheKey before
// any work starts, so listing one source pool many times runs the
// pipeline once; the distinct sets then fan out over up to parallelism
// concurrent IntegrateContext runs (0: GOMAXPROCS, 1: serial). The same
// options apply to every set. Cancellation stops unstarted sets, which
// report ctx.Err(); sets already computed keep their results.
func IntegrateBatch(ctx context.Context, sets [][]*Tree, parallelism int, opts ...Option) []BatchItem {
	ig, err := newIntegratorFromOptions(opts)
	if err != nil {
		// An invalid configuration fails every set the same way the
		// per-set IntegrateContext used to (empty sets keep reporting
		// their empty-input error, which took precedence).
		if ctx == nil {
			ctx = context.Background()
		}
		items := make([]BatchItem, len(sets))
		seen := make(map[string]bool, len(sets))
		for i, set := range sets {
			items[i] = BatchItem{Index: i, Key: CacheKey(set, opts...), Err: err}
			if len(set) == 0 {
				items[i].Err = errors.New("qilabel: no source interfaces")
			}
			if seen[items[i].Key] {
				items[i].Shared = true
			}
			seen[items[i].Key] = true
		}
		return items
	}
	return ig.IntegrateBatch(ctx, sets, parallelism)
}

// Fingerprint renders the effective configuration the given options
// produce as a canonical string. It is exactly Config.Fingerprint over the
// Config the options build — the single definition both share, so the two
// can never drift — and, together with a canonical hash of the sources
// (see CacheKey), a sound cache key component.
func Fingerprint(opts ...Option) string {
	var cfg Config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg.Fingerprint()
}

// CacheKey returns a deterministic key identifying an Integrate call: the
// canonical hash of the source-tree set combined with the option
// fingerprint. The key is independent of the order the sources are listed
// in — the common case of many clients integrating one domain's source
// pool maps to a single key — and changes whenever any tree's structure,
// any label, instance list or cluster annotation, or any effective option
// changes.
func CacheKey(sources []*Tree, opts ...Option) string {
	return schema.CacheKey(schema.TreeHashes(sources), Fingerprint(opts...))
}

// Summary renders a human-readable synopsis: the classification, each
// group's naming solution and each internal node's label.
func (r *Result) Summary() string { return r.Naming.Summary() }

// Explain renders the full provenance report: which interfaces supplied
// each label, at which consistency level each group was solved, which
// inference rule justified each internal-node title, and why any node
// remained unlabeled.
func (r *Result) Explain() string { return r.Naming.Explain() }

// Violation is one failed Verify check: the offending node, the violated
// rule (naming.RuleGenerality or naming.RuleHomonym) and a human-readable
// detail string. It implements fmt.Stringer.
type Violation = naming.Violation

// Verify re-checks the labeled tree's vertical-consistency invariants —
// ancestor titles at least as general as descendants', no same-named
// siblings — and returns the violations (empty on a sound labeling). The
// algorithm's own output always verifies; the check exists for callers
// that post-edit the tree. Verification uses the same lexicon the result
// was built with, so a labeling assisted by a custom lexicon is checked
// against those semantics rather than the weaker default.
func (r *Result) Verify() []Violation {
	return r.Naming.VerifyViolations(naming.NewSemantics(r.lex))
}

// HTML renders the labeled integrated interface as an HTML form: groups
// become <fieldset>/<legend> blocks, fields with predefined instances
// become <select> lists, free-text fields become <input> elements. An
// empty title defaults to "Integrated Query Interface".
func (r *Result) HTML(title string) string {
	return render.HTML(r.Tree, render.Options{Title: title})
}

// Query assigns values to integrated fields, keyed by cluster name.
type Query = translate.Query

// SubQuery is a global query translated for one source interface: the
// source fields to fill (1:m aggregates re-aggregated, values snapped to
// predefined domains) and the queried clusters the source cannot express.
type SubQuery = translate.SubQuery

// Translate maps a query over the integrated interface onto every source
// interface — the step the paper's system overview places after labeling.
// It reads TranslationIndex, so it does not see changes made to
// Merge.Sources after the integration.
func (r *Result) Translate(q Query) []SubQuery {
	return r.TranslationIndex().Translate(q)
}

// TranslationIndex returns the flat translation index of Merge.Sources
// that Translate reads, which the pipeline projects from the run's table.
func (r *Result) TranslationIndex() *translate.Index { return r.translation }

// Report computes the paper's evaluation metrics (FldAcc, IntAcc, HA,
// HA′ and the Table 6 characteristics) for this result against the given
// original sources. Only the source characteristics (SrcInterfaces
// through LQ) read the sources; nil sources leave them zero.
func (r *Result) Report(domain string, sources []*Tree) metrics.Report {
	return metrics.Evaluate(domain, sources, r.Merge, r.Naming)
}

// BuiltinDomain generates the evaluation corpus of one of the paper's
// seven domains: "Airline", "Auto", "Book", "Job", "Real Estate",
// "Car Rental" or "Hotels" (case-insensitive, spaces optional).
// Generation is deterministic.
func BuiltinDomain(name string) ([]*Tree, error) {
	d, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Generate(), nil
}

// BuiltinDomains lists the seven evaluation domain names in Table 6 order.
func BuiltinDomains() []string {
	var out []string
	for _, d := range dataset.Domains() {
		out = append(out, d.Name)
	}
	return out
}

// ExtractForms extracts one schema tree per <form> element of an HTML
// page: fieldsets become groups titled by their legends, text-like inputs,
// selects and textareas become fields (select options become instances),
// labels come from <label> associations or the preceding text. The iface
// argument names the interfaces when the forms carry no id/name.
//
// Extracted trees have no cluster annotations; integrate them with
// WithMatcher.
func ExtractForms(html []byte, iface string) []*Tree {
	return extract.Forms(string(html), iface)
}

// EncodeTrees serializes interfaces to JSON (the cmd/labeler input
// format); DecodeTrees parses and validates them.
func EncodeTrees(trees []*Tree) ([]byte, error) { return schema.EncodeTrees(trees) }

// DecodeTrees parses trees serialized by EncodeTrees and validates each.
func DecodeTrees(data []byte) ([]*Tree, error) { return schema.DecodeTrees(data) }
