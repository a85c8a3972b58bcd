// Command benchmark regenerates the paper's evaluation artifacts over the
// built-in seven-domain corpus:
//
//	benchmark -table6    print the Table 6 reproduction (default)
//	benchmark -figure10  print the Figure 10 inference-rule involvement
//	benchmark -ablation  print the ablation studies (baseline labeler,
//	                     consistency-level cap, instance rules on/off)
//	benchmark -all       print everything
//
// Every table comes from a qilabel.Integrator, the pipeline labeler and
// qilabeld run, with one Integrator per configuration. The corpus is
// deterministic, so the output is stable across runs; testdata/all.txt
// holds the -all output, and the package test checks that the command
// still reproduces it byte for byte.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qilabel"
	"qilabel/internal/baseline"
	"qilabel/internal/dataset"
	"qilabel/internal/metrics"
	"qilabel/internal/naming"
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
	runs, err := runAllDomains(qilabel.Config{})
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

// domainRun is one domain's sources and the Integrator's result over them.
type domainRun struct {
	name    string
	sources []*qilabel.Tree
	res     *qilabel.Result
}

// runAllDomains integrates every domain with one Integrator over cfg.
func runAllDomains(cfg qilabel.Config) ([]domainRun, error) {
	ig, err := qilabel.NewIntegrator(cfg)
	if err != nil {
		return nil, err
	}
	var runs []domainRun
	for _, d := range dataset.Domains() {
		sources := d.Generate()
		res, err := ig.Integrate(sources)
		if err != nil {
			return nil, err
		}
		runs = append(runs, domainRun{name: d.Name, sources: sources, res: res})
	}
	return runs, nil
}

func printTable6(w io.Writer, runs []domainRun) {
	fmt.Fprintln(w, "Table 6 — characteristics of interfaces per domain")
	fmt.Fprintln(w, metrics.Table6Header())
	for _, r := range runs {
		fmt.Fprintln(w, r.res.Report(r.name, r.sources).FormatTable6Row())
	}
	fmt.Fprintln(w)
}

func printFigure10(w io.Writer, runs []domainRun) {
	var total naming.Counters
	for _, r := range runs {
		for li := 1; li <= 7; li++ {
			total.LI[li] += r.res.Naming.Counters.LI[li]
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
		base := baseline.Run(sem, r.res.Mapping)
		cmp := baseline.Compare(sem, r.res.Mapping, r.res.Merge.Groups, r.res.Labels, base)
		fmt.Fprintf(w, "  %-12s %8.2f %8.2f %9d/%-3d %11d/%-3d %11d/%-3d\n",
			r.name, cmp.PaperWords, cmp.BaselineWords,
			cmp.MoreGeneric, cmp.Clusters,
			cmp.PaperGroupsConsistent, cmp.GroupsTotal,
			cmp.BaselineGroupsConsistent, cmp.GroupsTotal)
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Ablation 2 — consistency levels (groups solved consistently per level cap)")
	fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "Domain", "string", "+equality", "+synonymy")
	var capped [][]domainRun // per level, every domain
	for lvl := naming.LevelString; lvl <= naming.LevelSynonymy; lvl++ {
		lr, err := runAllDomains(qilabel.Config{MaxLevel: int(lvl)})
		if err != nil {
			return err
		}
		capped = append(capped, lr)
	}
	for i, r := range runs {
		counts := make([]string, 0, len(capped))
		for _, lr := range capped {
			solved, total := 0, 0
			for _, gr := range lr[i].res.Naming.Groups {
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
		fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", r.name, counts[0], counts[1], counts[2])
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "Ablation 3 — instance rules LI6/LI7 on vs off (inference firings)")
	fmt.Fprintf(w, "  %-12s %14s %14s\n", "Domain", "with instances", "without")
	without, err := runAllDomains(qilabel.Config{DisableInstances: true})
	if err != nil {
		return err
	}
	for i, r := range runs {
		on, off := r.res.Naming.Counters, without[i].res.Naming.Counters
		fmt.Fprintf(w, "  %-12s %8d (LI6=%d LI7=%d) %5d (LI6=%d LI7=%d)\n",
			r.name, on.Total(), on.LI[6], on.LI[7], off.Total(), off.LI[6], off.LI[7])
	}
	return nil
}
