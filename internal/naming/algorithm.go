package naming

import (
	"context"
	"errors"
	"sort"
	"strings"

	"qilabel/internal/cluster"
	"qilabel/internal/lexicon"
	"qilabel/internal/merge"
	"qilabel/internal/pool"
	"qilabel/internal/schema"
)

// Class is the consistency classification of a labeled integrated schema
// tree (Definition 8).
type Class int

const (
	// ClassConsistent: there is an assignment of consistent solutions for
	// the groups such that every internal node has a label consistent with
	// it, and the internal-node labels are mutually consistent.
	ClassConsistent Class = iota
	// ClassWeaklyConsistent: every internal node satisfies the generality
	// condition of Definition 7 but some label is not consistent with a
	// solution of each of its descendant groups.
	ClassWeaklyConsistent
	// ClassInconsistent: some group admits no consistent naming solution,
	// or some internal node with a nonempty set of potential labels could
	// not be assigned one.
	ClassInconsistent
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassConsistent:
		return "consistent"
	case ClassWeaklyConsistent:
		return "weakly consistent"
	default:
		return "inconsistent"
	}
}

// Options configure the naming algorithm.
type Options struct {
	// Lexicon is the lexical knowledge base (nil: the embedded default).
	Lexicon *lexicon.Lexicon
	// MaxLevel caps the consistency levels tried by the group solver
	// (zero: all three levels). Used by the level-ablation benchmarks.
	MaxLevel Level
	// DisableInstances turns the instance rules LI 6 / LI 7 off.
	DisableInstances bool
	// Parallelism bounds the workers of the per-group solving and per-node
	// candidate-derivation fan-outs (0: GOMAXPROCS, 1: serial). Groups and
	// nodes are solved independently, so the setting cannot change the
	// labeling — every unit's outcome is a pure function of its input.
	Parallelism int
	// DisableMemo switches every worker to the unmemoized reference
	// kernels: no shared label-analysis table, no Relate memo (each worker
	// re-analyzes labels into a cold private cache, as before the kernel
	// compilation), and the map-based internal-node derivation
	// (candidateLabels) instead of the indexed one. Verdicts and candidates
	// are pure functions of the labels, clusters and lexicon, so this can
	// only change speed, never output — the equivalence tests run both
	// ways to enforce exactly that. Diagnostics/tests only.
	DisableMemo bool
	// Analysis, when non-nil, supplies a label-analysis table precomputed
	// by the caller (it must have been built over the same Lexicon). The
	// pipeline builds one table per run and shares it between the matcher
	// and the naming passes instead of each stage re-analyzing the same
	// labels. Labels outside the table fall back to per-worker caches, so
	// the option is a pure accelerator: it can never change the labeling.
	// Ignored under DisableMemo. A table built by Warm.Analysis also
	// carries the Warm's shared Relate verdicts to every worker, the one
	// way a run reuses the work of earlier runs.
	Analysis *Analysis
}

// GroupReport records the solving of one group.
type GroupReport struct {
	// Clusters are the cluster names of the group, in relation order.
	Clusters []string
	// Outcome is the solver output (all partition/solution pairs).
	Outcome *GroupOutcome
	// Chosen is the solution the assignment phase settled on.
	Chosen *GroupSolution
	// IsRoot marks the special group of the root's leaf children, for
	// which partially consistent solutions are acceptable.
	IsRoot bool
	// Parent is the integrated-tree node whose leaf children form the
	// group (nil for the root group).
	Parent *schema.Node
}

// NodeReport records the labeling of one internal node of the integrated
// tree.
type NodeReport struct {
	// Node is the integrated-tree internal node.
	Node *schema.Node
	// Clusters is the node's descendant leaf set X.
	Clusters []string
	// Candidates are the candidate labels, ranked.
	Candidates []CandidateLabel
	// PotentialCount is the number of potential labels examined — labeled
	// source nodes whose cluster sets fall inside X, before the coverage
	// requirement. Definition 8 deems the interface inconsistent when a
	// node with potential labels ends up without a label.
	PotentialCount int
	// Assigned is the chosen label ("" when none could be assigned).
	Assigned string
	// Rule is the inference rule of the assigned candidate (0 if none).
	Rule int
	// GroupConsistent reports whether the assigned label is consistent
	// (Definition 6) with the chosen solutions of all descendant groups.
	GroupConsistent bool
	// Promoted marks a node with a nonempty candidate set that still could
	// not be labeled because every candidate belongs to an ancestor
	// (L_e − L_path(e) = ∅, the Car Rental failure mode).
	Promoted bool
}

// Result is the outcome of the naming algorithm.
type Result struct {
	// Tree is the labeled integrated schema tree (the merge result's tree,
	// labeled in place).
	Tree *schema.Tree
	// Class is the Definition 8 classification.
	Class Class
	// Groups reports every group, the root group last.
	Groups []*GroupReport
	// IsolatedLabels maps isolated-cluster names to their elected labels.
	IsolatedLabels map[string]string
	// Nodes reports every internal node of the integrated tree.
	Nodes []*NodeReport
	// Counters tallies the inference-rule involvement (Figure 10).
	Counters Counters
}

// Run executes the three-phase naming algorithm (§6) over an integration
// result, labeling mr.Tree in place.
//
// Phase one walks the tree bottom-up determining candidate labels: group
// relations are built and solved (§4), isolated clusters are labeled
// (§4.4), and the inference rules LI1–LI5 produce candidate labels for the
// internal nodes (§5). Phase two determines the consistency level the
// schema tree supports (Definition 8). Phase three assigns each node a
// label complying with that level.
func Run(mr *merge.Result, opts Options) (*Result, error) {
	return RunContext(context.Background(), mr, opts)
}

// RunContext is Run with cooperative cancellation and a bounded worker
// pool: the per-group solver passes (Phase 1a) and the per-node candidate
// derivation (Phase 1c) — the two passes that dominate large domains — fan
// out over Options.Parallelism workers and check ctx between units,
// returning ctx.Err() once the context is done. Each worker carries its own
// Semantics (the label-analysis cache is not concurrency-safe) over the
// same lexicon, and each unit tallies inference rules into its own slot, so
// the parallel run is label- and counter-identical to the serial one.
func RunContext(ctx context.Context, mr *merge.Result, opts Options) (*Result, error) {
	if mr == nil || mr.Tree == nil {
		return nil, errors.New("naming: nil merge result")
	}
	// Analyze every source label once into an immutable table shared
	// read-only by all pool workers, instead of each worker rebuilding its
	// own cold cache. Labels the passes synthesize later still fall back to
	// the per-worker cache, so the table is a pure accelerator.
	var shared *Analysis
	newSem := func() *Semantics { return NewSemanticsUnmemoized(opts.Lexicon) }
	if !opts.DisableMemo {
		shared = opts.Analysis
		if shared == nil {
			shared = PrecomputeAnalysis(opts.Lexicon, sourceLabels(mr.Sources))
		}
		newSem = shared.Semantics
	}
	sem := newSem()
	sopts := SolverOptions{
		MaxLevel:     opts.MaxLevel,
		UseInstances: !opts.DisableInstances,
	}
	res := &Result{Tree: mr.Tree, IsolatedLabels: make(map[string]string)}
	sopts.Counters = &res.Counters

	workers := pool.Workers(opts.Parallelism)
	sems := make([]*Semantics, workers)
	sems[0] = sem // the serial path reuses the main analysis cache
	semFor := func(w int) *Semantics {
		if sems[w] == nil {
			sems[w] = newSem()
		}
		return sems[w]
	}

	ifaces := cluster.Interfaces(mr.Sources)

	// ---- Phase 1a: groups, the root group last. ----------------------------
	groups := mr.Groups
	if len(mr.Root) > 0 {
		groups = append(groups[:len(groups):len(groups)], mr.Root)
	}
	groupOuts := make([]*GroupOutcome, len(groups))
	groupCounters := make([]Counters, len(groups))
	err := pool.ForEach(ctx, workers, len(groups), func(w, i int) {
		so := sopts
		so.Counters = &groupCounters[i]
		groupOuts[i] = semFor(w).SolveGroup(cluster.BuildRelation(groups[i], ifaces), so)
	})
	if err != nil {
		return nil, err
	}
	for i, g := range groups {
		res.Counters.Merge(groupCounters[i])
		gr := &GroupReport{Clusters: clusterNames(g), Outcome: groupOuts[i]}
		if i < len(mr.Groups) {
			gr.Parent = mr.GroupParent(g)
		} else {
			gr.IsRoot = true
		}
		res.Groups = append(res.Groups, gr)
	}

	// ---- Phase 1b: isolated clusters. --------------------------------------
	for _, c := range mr.Isolated {
		res.IsolatedLabels[c.Name] = sem.LabelIsolated(c, sopts)
	}

	// ---- Phase 1c: candidate labels for internal nodes (bottom-up). --------
	var internals []*schema.Node
	mr.Tree.Root.Walk(func(n *schema.Node) bool {
		if n != mr.Tree.Root && !n.IsLeaf() {
			internals = append(internals, n)
		}
		return true
	})

	// Nodes derive their candidates over a per-run index (bitset cluster
	// sets, per-cluster content words); the reference kernels keep the
	// map-based derivation it must match.
	nodeOuts := make([]*NodeReport, len(internals))
	nodeCounters := make([]Counters, len(internals))
	var units []sourceUnit
	var ix *nodeIndex
	if len(internals) > 0 {
		units = collectSourceUnits(mr.Sources)
		if !opts.DisableMemo {
			ix = newNodeIndex(sem, mr.Mapping, units, mr.Tree.Root.LeafClusters())
		}
	}
	err = pool.ForEach(ctx, workers, len(internals), func(w, i int) {
		so := sopts
		so.Counters = &nodeCounters[i]
		x := internals[i].LeafClusters()
		names := sortedKeys(x)
		var cands []CandidateLabel
		var potentials int
		if ix != nil {
			cands, potentials = semFor(w).candidateLabelsIndexed(ix, ix.setOf(names), so)
		} else {
			cands, potentials = semFor(w).candidateLabels(x, units, mr.Mapping, so)
		}
		nodeOuts[i] = &NodeReport{
			Node:           internals[i],
			Clusters:       names,
			Candidates:     cands,
			PotentialCount: potentials,
		}
	})
	if err != nil {
		return nil, err
	}
	nodeReports := make(map[*schema.Node]*NodeReport, len(internals))
	for i, nr := range nodeOuts {
		res.Counters.Merge(nodeCounters[i])
		nodeReports[nr.Node] = nr
		res.Nodes = append(res.Nodes, nr)
	}

	// ---- Phase 2: settle group solutions against the internal nodes. -------
	// For a group with several (partition, solution) pairs, prefer the
	// solution consistent (Definition 6) with the most candidate labels of
	// the internal nodes above the group (§4.3: the selection is correlated
	// with the labels of other attributes in the schema tree).
	ancestorsOf := ancestorIndex(mr.Tree)
	for _, gr := range res.Groups {
		gr.Chosen = chooseSolution(sem, gr, nodeReports, ancestorsOf)
	}

	// ---- Phase 3: assign labels. -------------------------------------------
	assignLeafLabels(res, mr)
	assignInternalLabels(sem, res, mr, nodeReports, ancestorsOf)

	// ---- Classification (Definition 8). -------------------------------------
	res.Class = classify(res)
	return res, nil
}

// sourceLabels collects every node label of the source trees — the label
// universe the passes draw from — for the shared analysis table.
func sourceLabels(sources []*schema.Tree) []string {
	var labels []string
	for _, t := range sources {
		t.Root.Walk(func(n *schema.Node) bool {
			if n.Label != "" {
				labels = append(labels, n.Label)
			}
			return true
		})
	}
	return labels
}

func clusterNames(g []*cluster.Cluster) []string {
	out := make([]string, len(g))
	for i, c := range g {
		out[i] = c.Name
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ancestorIndex maps every node to its strict ancestors (root excluded),
// nearest first.
func ancestorIndex(t *schema.Tree) map[*schema.Node][]*schema.Node {
	idx := make(map[*schema.Node][]*schema.Node)
	var walk func(n *schema.Node, anc []*schema.Node)
	walk = func(n *schema.Node, anc []*schema.Node) {
		for _, c := range n.Children {
			idx[c] = append([]*schema.Node(nil), anc...)
			if !c.IsLeaf() {
				walk(c, append([]*schema.Node{c}, anc...))
			}
		}
	}
	walk(t.Root, nil)
	return idx
}

// labelConsistentWithSolution implements Definition 6: a candidate label is
// consistent with a solution S of group G if some origin interface of the
// label either supplies no tuple in G's relation (it imposes no constraint)
// or supplies a tuple belonging to the partition S was computed from.
// Partially consistent solutions have no partition, so nothing is
// consistent with them.
func labelConsistentWithSolution(c CandidateLabel, out *GroupOutcome, sol *GroupSolution) bool {
	if sol == nil || sol.Partition == nil {
		return false
	}
	for _, origin := range c.Origins {
		has := false
		for _, t := range out.Relation.Tuples {
			if t.Interface == origin {
				has = true
				break
			}
		}
		if !has || sol.Partition.ContainsInterface(origin) {
			return true
		}
	}
	return false
}

// chooseSolution picks, among a group's solutions, the one consistent with
// the most internal-node candidates above the group.
func chooseSolution(sem *Semantics, gr *GroupReport,
	nodeReports map[*schema.Node]*NodeReport,
	ancestorsOf map[*schema.Node][]*schema.Node) *GroupSolution {

	sols := gr.Outcome.Solutions
	if len(sols) == 0 {
		return nil
	}
	if len(sols) == 1 || gr.Parent == nil {
		return sols[0]
	}
	anc := append([]*schema.Node{gr.Parent}, ancestorsOf[gr.Parent]...)
	best, bestScore := sols[0], -1
	for _, sol := range sols {
		score := 0
		for _, a := range anc {
			nr := nodeReports[a]
			if nr == nil {
				continue
			}
			for _, cand := range nr.Candidates {
				if labelConsistentWithSolution(cand, gr.Outcome, sol) {
					score++
					break
				}
			}
		}
		if score > bestScore {
			best, bestScore = sol, score
		}
	}
	return best
}

// assignLeafLabels writes the group solutions and isolated labels onto the
// integrated tree's leaves.
func assignLeafLabels(res *Result, mr *merge.Result) {
	for _, gr := range res.Groups {
		if gr.Chosen == nil {
			continue
		}
		for i, name := range gr.Clusters {
			leaf := mr.LeafOf[name]
			if leaf != nil && i < len(gr.Chosen.Labels) {
				leaf.Label = gr.Chosen.Labels[i]
			}
		}
	}
	for name, label := range res.IsolatedLabels {
		if leaf := mr.LeafOf[name]; leaf != nil {
			leaf.Label = label
		}
	}
	// Leaves inherit their fields' instances: the integrated field's domain
	// is the union of the matched source fields' domains ([12]; computed
	// here so examples and metrics can inspect it).
	for _, c := range mr.Mapping.Clusters {
		if leaf := mr.LeafOf[c.Name]; leaf != nil {
			leaf.Instances = c.Instances("")
		}
	}
}

// assignInternalLabels labels the internal nodes bottom-up. Each node must
// take a label from its candidate set that no ancestor also holds as a
// candidate (Proposition 2's L_e − L_path(e)); among those, labels
// consistent with the chosen solutions of every descendant group
// (Definition 6) are preferred, then the most descriptive.
func assignInternalLabels(sem *Semantics, res *Result, mr *merge.Result,
	nodeReports map[*schema.Node]*NodeReport,
	ancestorsOf map[*schema.Node][]*schema.Node) {

	// Descendant groups per internal node.
	groupsUnder := make(map[*schema.Node][]*GroupReport)
	for _, gr := range res.Groups {
		if gr.IsRoot || gr.Parent == nil {
			continue
		}
		for _, a := range append([]*schema.Node{gr.Parent}, ancestorsOf[gr.Parent]...) {
			groupsUnder[a] = append(groupsUnder[a], gr)
		}
	}

	for _, nr := range res.Nodes {
		if len(nr.Candidates) == 0 {
			nr.GroupConsistent = true // vacuously; nothing to judge
			continue
		}
		// L_e − L_path(e): drop candidates equivalent to a candidate of an
		// ancestor — such labels belong higher up.
		var avail []CandidateLabel
		for _, cand := range nr.Candidates {
			taken := false
			for _, a := range ancestorsOf[nr.Node] {
				ar := nodeReports[a]
				if ar == nil {
					continue
				}
				for _, ac := range ar.Candidates {
					if sem.Equivalent(cand.Label, ac.Label) {
						taken = true
						break
					}
				}
				if taken {
					break
				}
			}
			if !taken {
				avail = append(avail, cand)
			}
		}
		if len(avail) == 0 {
			nr.Promoted = true
			continue
		}
		// Homonym avoidance extended to titles (§4.2.3 in spirit, and the
		// introduction's Job Type / Job Preferences discussion): a node
		// title must not repeat the name of a sibling field. Prefer
		// conflict-free candidates; fall back if every candidate collides.
		if parent := res.Tree.Root.Parent(nr.Node); parent != nil {
			var siblingLabels []string
			for _, sib := range parent.Children {
				if sib != nr.Node && sib.IsLeaf() && strings.TrimSpace(sib.Label) != "" {
					siblingLabels = append(siblingLabels, sib.Label)
				}
			}
			if len(siblingLabels) > 0 {
				conflicts := func(label string) bool {
					for _, sl := range siblingLabels {
						if sem.sameName(label, sl) {
							return true
						}
					}
					return false
				}
				var clean []CandidateLabel
				for _, cand := range avail {
					if !conflicts(cand.Label) {
						clean = append(clean, cand)
						continue
					}
					// The primary form collides: switch to an equivalent
					// display form from another interface, as §4.2.3 does
					// for fields.
					for _, alt := range cand.Alternates {
						if !conflicts(alt) {
							cand.Label = alt
							clean = append(clean, cand)
							break
						}
					}
				}
				if len(clean) > 0 {
					avail = clean
				}
			}
		}
		// Prefer Definition 6 consistency with all descendant groups.
		groups := groupsUnder[nr.Node]
		consistentWithAll := func(c CandidateLabel) bool {
			for _, gr := range groups {
				if gr.Chosen == nil || !gr.Chosen.Consistent {
					return false
				}
				if !labelConsistentWithSolution(c, gr.Outcome, gr.Chosen) {
					return false
				}
			}
			return true
		}
		pick := -1
		for i, c := range avail {
			if consistentWithAll(c) {
				pick = i
				break
			}
		}
		if pick >= 0 {
			nr.GroupConsistent = true
		} else {
			pick = 0 // weakly consistent choice: generality holds, Def. 6 fails
		}
		nr.Assigned = avail[pick].Label
		nr.Rule = avail[pick].Rule
		nr.Node.Label = nr.Assigned
	}
}

// classify applies Definition 8.
func classify(res *Result) Class {
	inconsistent := false
	weak := false
	for _, gr := range res.Groups {
		if gr.IsRoot {
			continue // partially consistent solutions are accepted for C_root
		}
		if gr.Chosen == nil || !gr.Chosen.Consistent {
			inconsistent = true
		}
	}
	for _, nr := range res.Nodes {
		if nr.Promoted {
			inconsistent = true
		}
		if nr.Assigned != "" && !nr.GroupConsistent {
			weak = true
		}
		// Definition 8: an unlabeled internal node whose set of potential
		// labels is nonempty makes the interface inconsistent (the Airline
		// propagation failure); a node with no potential labels at all is
		// benignly unlabelable and only hurts IntAcc.
		if nr.Assigned == "" && nr.PotentialCount > 0 {
			inconsistent = true
		}
	}
	// §4.2.3's homonym condition at the structural level: labeled sibling
	// nodes sharing a name present the user two identical entries, so the
	// assignment cannot be fully consistent even when every group solved
	// cleanly. Merge produces such siblings when one source group's
	// members split across units; VerifyViolations reports them, and the
	// classification must not claim Consistent for a tree Verify rejects.
	homonyms := false
	res.Tree.Root.Walk(func(n *schema.Node) bool {
		seen := map[string]bool{}
		for _, c := range n.Children {
			l := strings.ToLower(strings.TrimSpace(c.Label))
			if l == "" {
				continue
			}
			if seen[l] {
				homonyms = true
			}
			seen[l] = true
		}
		return !homonyms
	})

	switch {
	case inconsistent:
		return ClassInconsistent
	case weak || homonyms:
		return ClassWeaklyConsistent
	default:
		return ClassConsistent
	}
}

// Summary renders a human-readable synopsis of the result.
func (r *Result) Summary() string {
	var b strings.Builder
	b.WriteString("classification: ")
	b.WriteString(r.Class.String())
	b.WriteByte('\n')
	for _, gr := range r.Groups {
		kind := "group"
		if gr.IsRoot {
			kind = "root group"
		}
		b.WriteString(kind)
		b.WriteString(" [")
		b.WriteString(strings.Join(gr.Clusters, ", "))
		b.WriteString("] -> ")
		if gr.Chosen != nil {
			b.WriteString("(")
			b.WriteString(strings.Join(gr.Chosen.Labels, ", "))
			b.WriteString(")")
			if gr.Chosen.Consistent {
				b.WriteString(" consistent@")
				b.WriteString(gr.Chosen.Level.String())
			} else {
				b.WriteString(" partially consistent")
			}
		} else {
			b.WriteString("no solution")
		}
		b.WriteByte('\n')
	}
	for _, nr := range r.Nodes {
		b.WriteString("internal [")
		b.WriteString(strings.Join(nr.Clusters, ", "))
		b.WriteString("] -> ")
		if nr.Assigned != "" {
			b.WriteString(nr.Assigned)
		} else {
			b.WriteString("(unlabeled)")
		}
		b.WriteByte('\n')
	}
	return b.String()
}
