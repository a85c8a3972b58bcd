// Command labeler runs the full pipeline — matching (optional), merging
// and naming — over query interfaces described in a JSON file, and prints
// the labeled integrated interface.
//
//	labeler [-match] [-no-instances] [-max-level N] [-min-freq N] [-summary]
//	        [-explain] [-html out.html] [-lexicon lex.json] [-timeout 30s]
//	        [-parallelism N] [-v] [-strict] [-verify] file.json
//	labeler -from-html [flags] page.html...
//	labeler -domain Airline [-summary]
//
// The JSON format is an array of schema trees (see qilabel.EncodeTrees):
//
//	[
//	  {"interface": "aa", "root": {"children": [
//	    {"label": "Adults", "cluster": "c_Adult"},
//	    {"label": "Children", "cluster": "c_Child"}
//	  ]}},
//	  ...
//	]
//
// Fields either carry "cluster" annotations (ground-truth matching) or the
// -match flag derives clusters from labels and selection-list values.
// With -domain the built-in evaluation corpus of one of the paper's seven
// domains is used instead of a file; with -from-html every <form> of the
// given pages is extracted as one interface, and clusters come from the
// matcher. -min-freq drops fields fewer than N interfaces supply, -explain
// prints why each label was chosen, -html writes the integrated interface
// as an HTML form and -lexicon extends the built-in lexicon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"qilabel"
)

func main() {
	useMatcher := flag.Bool("match", false, "derive clusters with the matcher instead of trusting annotations")
	noInstances := flag.Bool("no-instances", false, "disable the instance rules LI6/LI7")
	maxLevel := flag.Int("max-level", 0, "cap the consistency levels (1=string, 2=+equality, 3=+synonymy)")
	minFreq := flag.Int("min-freq", 0, "drop fields appearing on fewer than N source interfaces")
	summary := flag.Bool("summary", false, "print the group/internal-node report instead of only the tree")
	explain := flag.Bool("explain", false, "print the full label-provenance report")
	htmlOut := flag.String("html", "", "also write the integrated interface as an HTML form to this file")
	lexFile := flag.String("lexicon", "", "extend the built-in lexicon with entries from this JSON file")
	fromHTML := flag.Bool("from-html", false, "treat the arguments as HTML pages; extract one interface per <form> (implies -match)")
	domain := flag.String("domain", "", "use a built-in evaluation domain (Airline, Auto, Book, Job, Real Estate, Car Rental, Hotels)")
	timeout := flag.Duration("timeout", 0, "cancel the pipeline if it runs longer than this (0 = no limit)")
	parallelism := flag.Int("parallelism", 0, "worker-pool size for the parallel stages (0 = GOMAXPROCS, 1 = serial); never changes the output")
	verbose := flag.Bool("v", false, "print a per-stage timing table to stderr")
	strict := flag.Bool("strict", false, "exit non-zero when the classification is inconsistent, so scripts can gate on labeling quality")
	verify := flag.Bool("verify", false, "re-check the labeled tree's consistency invariants and report any violations")
	flag.Parse()

	var sources []*qilabel.Tree
	switch {
	case *domain != "":
		var err error
		sources, err = qilabel.BuiltinDomain(*domain)
		if err != nil {
			fatal(err)
		}
	case *fromHTML && flag.NArg() >= 1:
		*useMatcher = true
		for _, arg := range flag.Args() {
			data, err := os.ReadFile(arg)
			if err != nil {
				fatal(err)
			}
			name := strings.TrimSuffix(filepath.Base(arg), filepath.Ext(arg))
			sources = append(sources, qilabel.ExtractForms(data, name)...)
		}
		if len(sources) == 0 {
			fatal(fmt.Errorf("no <form> elements found in %d page(s)", flag.NArg()))
		}
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		sources, err = qilabel.DecodeTrees(data)
		if err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: labeler [flags] file.json | labeler -from-html page.html... | labeler -domain <name>")
		flag.PrintDefaults()
		os.Exit(2)
	}

	var opts []qilabel.Option
	if *useMatcher {
		opts = append(opts, qilabel.WithMatcher())
	}
	if *noInstances {
		opts = append(opts, qilabel.WithoutInstances())
	}
	if *maxLevel > 0 {
		opts = append(opts, qilabel.WithMaxLevel(*maxLevel))
	}
	if *minFreq > 0 {
		opts = append(opts, qilabel.WithMinFrequency(*minFreq))
	}
	if *lexFile != "" {
		data, err := os.ReadFile(*lexFile)
		if err != nil {
			fatal(err)
		}
		extra, err := qilabel.DecodeLexicon(data)
		if err != nil {
			fatal(err)
		}
		lex := qilabel.DefaultLexicon().Clone()
		lex.AddFrom(extra)
		opts = append(opts, qilabel.WithLexicon(lex))
	}

	if *parallelism > 0 {
		opts = append(opts, qilabel.WithParallelism(*parallelism))
	}
	var stages []qilabel.StageEvent
	if *verbose {
		opts = append(opts, qilabel.WithObserver(func(e qilabel.StageEvent) {
			stages = append(stages, e)
		}))
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	res, err := qilabel.IntegrateContext(ctx, sources, opts...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fatal(fmt.Errorf("pipeline exceeded the %s timeout and was canceled", *timeout))
		}
		fatal(err)
	}
	if *verbose {
		printStages(stages)
	}
	fmt.Printf("integrated %d interfaces -> %s\n\n", len(sources), res.Class)
	fmt.Print(res.Tree)
	if *summary {
		fmt.Println()
		fmt.Print(res.Summary())
	}
	if *explain {
		fmt.Println()
		fmt.Print(res.Explain())
	}
	if *htmlOut != "" {
		title := *domain
		if title == "" {
			title = "Integrated Query Interface"
		}
		if err := os.WriteFile(*htmlOut, []byte(res.HTML(title)), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nwrote %s\n", *htmlOut)
	}
	if *verify {
		// The typed Verify API: each violation names the offending node and
		// the violated rule, so the report needs no string parsing.
		if vs := res.Verify(); len(vs) > 0 {
			fmt.Fprintf(os.Stderr, "labeler: %d verification violation(s):\n", len(vs))
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "  [%s] %s\n", v.Rule, v.Detail)
			}
			os.Exit(4)
		}
		fmt.Println("\nverification: ok")
	}
	if *strict && res.Class == qilabel.Inconsistent {
		fmt.Fprintln(os.Stderr, "labeler: inconsistent classification (-strict)")
		os.Exit(3)
	}
}

// printStages renders the -v per-stage timing table on stderr, so it
// composes with stdout redirection of the labeled tree.
func printStages(stages []qilabel.StageEvent) {
	var total time.Duration
	for _, e := range stages {
		total += e.Duration
	}
	fmt.Fprintf(os.Stderr, "%-10s %8s %12s\n", "stage", "units", "wall")
	for _, e := range stages {
		fmt.Fprintf(os.Stderr, "%-10s %8d %12s\n", e.Stage, e.Units, e.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(os.Stderr, "%-10s %8s %12s\n", "total", "", total.Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labeler:", err)
	os.Exit(1)
}
