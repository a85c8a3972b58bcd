// Command benchmark regenerates the paper's evaluation artifacts over the
// built-in seven-domain corpus:
//
//	benchmark -table6    print the Table 6 reproduction (default)
//	benchmark -figure10  print the Figure 10 inference-rule involvement
//	benchmark -ablation  print the ablation studies (baseline labeler,
//	                     consistency-level cap, instance rules on/off)
//	benchmark -all       print everything
//
// The corpus is deterministic, so the output is stable across runs;
// testdata/all.txt holds the -all output, and the package test checks that
// the command still reproduces it byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qilabel/internal/baseline"
	"qilabel/internal/cluster"
	"qilabel/internal/dataset"
	"qilabel/internal/merge"
	"qilabel/internal/metrics"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

func main() {
	table6 := flag.Bool("table6", false, "print the Table 6 reproduction")
	figure10 := flag.Bool("figure10", false, "print the Figure 10 reproduction")
	ablation := flag.Bool("ablation", false, "print the ablation studies")
	all := flag.Bool("all", false, "print everything")
	flag.Parse()
	if !*table6 && !*figure10 && !*ablation && !*all {
		*table6 = true
	}
	if *all {
		*table6, *figure10, *ablation = true, true, true
	}

	if err := run(os.Stdout, *table6, *figure10, *ablation); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run prints the selected sections to w.
func run(w io.Writer, table6, figure10, ablation bool) error {
	runs, err := runAllDomains(naming.Options{})
	if err != nil {
		return err
	}
	if table6 {
		printTable6(w, runs)
	}
	if figure10 {
		printFigure10(w, runs)
	}
	if ablation {
		return printAblations(w, runs)
	}
	return nil
}

// domainRun carries one domain's full pipeline output.
type domainRun struct {
	name    string
	sources []*schema.Tree
	mapping *cluster.Mapping
	merged  *merge.Result
	named   *naming.Result
	report  metrics.Report
}

func runAllDomains(opts naming.Options) ([]domainRun, error) {
	var runs []domainRun
	for _, d := range dataset.Domains() {
		trees := d.Generate()
		sources := make([]*schema.Tree, len(trees))
		for i, t := range trees {
			sources[i] = t.Clone()
		}
		cluster.ExpandOneToMany(trees)
		m, err := cluster.FromTrees(trees)
		if err != nil {
			return nil, err
		}
		mr, err := merge.Merge(trees, m)
		if err != nil {
			return nil, err
		}
		res, err := naming.Run(mr, opts)
		if err != nil {
			return nil, err
		}
		runs = append(runs, domainRun{
			name:    d.Name,
			sources: sources,
			mapping: m,
			merged:  mr,
			named:   res,
			report:  metrics.Evaluate(d.Name, sources, mr, res),
		})
	}
	return runs, nil
}

func printTable6(w io.Writer, runs []domainRun) {
	fmt.Fprintln(w, "Table 6 — characteristics of interfaces per domain")
	fmt.Fprintln(w, metrics.Table6Header())
	for _, r := range runs {
		fmt.Fprintln(w, r.report.FormatTable6Row())
	}
	fmt.Fprintln(w)
}

func printFigure10(w io.Writer, runs []domainRun) {
	var total naming.Counters
	for _, r := range runs {
		for li := 1; li <= 7; li++ {
			total.LI[li] += r.named.Counters.LI[li]
		}
	}
	fmt.Fprintln(w, "Figure 10 — logical inference involvement (all domains)")
	shares := metrics.LIShares(total)
	for li := 1; li <= 7; li++ {
		bar := ""
		for i := 0; i < int(shares[li]*60+0.5); i++ {
			bar += "#"
		}
		fmt.Fprintf(w, "  LI%d %5.1f%%  (%3d firings)  %s\n", li, shares[li]*100, total.LI[li], bar)
	}
	fmt.Fprintln(w)
}

func printAblations(w io.Writer, runs []domainRun) error {
	fmt.Fprintln(w, "Ablation 1 — most-descriptive (paper) vs most-general+majority (RAN baseline [12])")
	fmt.Fprintf(w, "  %-12s %8s %8s %11s %14s %14s\n",
		"Domain", "PprWords", "BasWords", "MoreGeneric", "PprGrpConsist", "BasGrpConsist")
	sem := naming.NewSemantics(nil)
	for _, r := range runs {
		paper := make(map[string]string)
		for _, c := range r.mapping.Clusters {
			if leaf := r.merged.LeafOf[c.Name]; leaf != nil {
				paper[c.Name] = leaf.Label
			}
		}
		base := baseline.Run(sem, r.mapping)
		cmp := baseline.Compare(sem, r.mapping, r.merged.Groups, paper, base)
		fmt.Fprintf(w, "  %-12s %8.2f %8.2f %9d/%-3d %11d/%-3d %11d/%-3d\n",
			r.name, cmp.PaperWords, cmp.BaselineWords,
			cmp.MoreGeneric, cmp.Clusters,
			cmp.PaperGroupsConsistent, cmp.GroupsTotal,
			cmp.BaselineGroupsConsistent, cmp.GroupsTotal)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Ablation 2 — consistency levels (groups solved consistently per level cap)")
	fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "Domain", "string", "+equality", "+synonymy")
	for _, d := range dataset.Domains() {
		counts := make([]string, 0, 3)
		for lvl := naming.LevelString; lvl <= naming.LevelSynonymy; lvl++ {
			run, err := runDomainWith(d, naming.Options{MaxLevel: lvl})
			if err != nil {
				return err
			}
			solved, total := 0, 0
			for _, gr := range run.Groups {
				if gr.IsRoot {
					continue
				}
				total++
				if gr.Chosen != nil && gr.Chosen.Consistent {
					solved++
				}
			}
			counts = append(counts, fmt.Sprintf("%d/%d", solved, total))
		}
		fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", d.Name, counts[0], counts[1], counts[2])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Ablation 3 — instance rules LI6/LI7 on vs off (inference firings)")
	fmt.Fprintf(w, "  %-12s %14s %14s\n", "Domain", "with instances", "without")
	for _, d := range dataset.Domains() {
		on, err := runDomainWith(d, naming.Options{})
		if err != nil {
			return err
		}
		off, err := runDomainWith(d, naming.Options{DisableInstances: true})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-12s %8d (LI6=%d LI7=%d) %5d (LI6=%d LI7=%d)\n",
			d.Name,
			on.Counters.Total(), on.Counters.LI[6], on.Counters.LI[7],
			off.Counters.Total(), off.Counters.LI[6], off.Counters.LI[7])
	}
	return nil
}

func runDomainWith(d *dataset.DomainSpec, opts naming.Options) (*naming.Result, error) {
	trees := d.Generate()
	cluster.ExpandOneToMany(trees)
	m, err := cluster.FromTrees(trees)
	if err != nil {
		return nil, err
	}
	mr, err := merge.Merge(trees, m)
	if err != nil {
		return nil, err
	}
	return naming.Run(mr, opts)
}
