package qilabel

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus the ablation studies DESIGN.md calls out.
// The benchmarks measure the pipeline's run time over the deterministic
// seven-domain corpus and attach the reproduced numbers as custom metrics
// (b.ReportMetric), so `go test -bench . -benchmem` regenerates the paper's
// results alongside the performance profile. The cmd/benchmark tool prints
// the same numbers as tables. Each benchmark holds one Integrator per
// Config, so the numbers are the ones the pipeline outputs.

import (
	"testing"

	"qilabel/internal/baseline"
	"qilabel/internal/dataset"
	"qilabel/internal/match"
	"qilabel/internal/metrics"
	"qilabel/internal/naming"
	"qilabel/internal/schema"
)

// runPipeline integrates every generated domain with one Integrator over
// cfg, calling fn with each domain's result.
func runPipeline(b *testing.B, cfg Config, fn func(res *Result)) {
	b.Helper()
	ig, err := NewIntegrator(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, d := range dataset.Domains() {
		res, err := ig.Integrate(d.Generate())
		if err != nil {
			b.Fatal(err)
		}
		fn(res)
	}
}

// benchDomain runs the full pipeline for one domain each iteration and
// reports the domain's Table 6 statistics as custom metrics.
func benchDomain(b *testing.B, name string) {
	d, err := dataset.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	ig, err := NewIntegrator(Config{})
	if err != nil {
		b.Fatal(err)
	}
	var rep metrics.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sources := d.Generate()
		res, err := ig.Integrate(sources)
		if err != nil {
			b.Fatal(err)
		}
		rep = res.Report(name, sources)
	}
	b.ReportMetric(rep.FldAcc*100, "FldAcc%")
	b.ReportMetric(rep.IntAcc*100, "IntAcc%")
	b.ReportMetric(rep.HA*100, "HA%")
	b.ReportMetric(rep.HAPrime*100, "HA'%")
}

// BenchmarkTable6 regenerates Table 6: the full pipeline per domain, with
// the accuracy columns attached as metrics. Run a single domain with e.g.
// `go test -bench 'Table6/Airline'`.
func BenchmarkTable6(b *testing.B) {
	for _, name := range BuiltinDomains() {
		b.Run(name, func(b *testing.B) { benchDomain(b, name) })
	}
}

// BenchmarkFigure10 regenerates Figure 10: the inference-rule involvement
// across all seven domains, reported as percentage metrics per rule.
func BenchmarkFigure10(b *testing.B) {
	var total naming.Counters
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = naming.Counters{}
		runPipeline(b, Config{}, func(res *Result) {
			for li := 1; li <= 7; li++ {
				total.LI[li] += res.Naming.Counters.LI[li]
			}
		})
	}
	shares := metrics.LIShares(total)
	b.ReportMetric(shares[1]*100, "LI1%")
	b.ReportMetric(shares[2]*100, "LI2%")
	b.ReportMetric(shares[3]*100, "LI3%")
	b.ReportMetric(shares[4]*100, "LI4%")
	b.ReportMetric(shares[5]*100, "LI5%")
	b.ReportMetric(shares[6]*100, "LI6%")
	b.ReportMetric(shares[7]*100, "LI7%")
}

// BenchmarkAblationBaseline contrasts the paper's most-descriptive labeler
// with the most-general+majority RAN baseline [12] (§3.2.1): average
// content words of the chosen labels and within-group consistency rate.
func BenchmarkAblationBaseline(b *testing.B) {
	sem := naming.NewSemantics(nil)
	var paperWords, baseWords float64
	var paperGroups, baseGroups, totalGroups int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paperWords, baseWords = 0, 0
		paperGroups, baseGroups, totalGroups = 0, 0, 0
		domains := 0
		runPipeline(b, Config{}, func(res *Result) {
			base := baseline.Run(sem, res.Mapping)
			cmp := baseline.Compare(sem, res.Mapping, res.Merge.Groups, res.Labels, base)
			paperWords += cmp.PaperWords
			baseWords += cmp.BaselineWords
			paperGroups += cmp.PaperGroupsConsistent
			baseGroups += cmp.BaselineGroupsConsistent
			totalGroups += cmp.GroupsTotal
			domains++
		})
		paperWords /= float64(domains)
		baseWords /= float64(domains)
	}
	b.ReportMetric(paperWords, "paperWords")
	b.ReportMetric(baseWords, "baseWords")
	b.ReportMetric(float64(paperGroups)/float64(totalGroups)*100, "paperGrpCons%")
	b.ReportMetric(float64(baseGroups)/float64(totalGroups)*100, "baseGrpCons%")
}

// BenchmarkAblationLevels measures how many groups are solved consistently
// when the solver is capped at each consistency level of Definition 2.
func BenchmarkAblationLevels(b *testing.B) {
	for _, lvl := range []naming.Level{naming.LevelString, naming.LevelEquality, naming.LevelSynonymy} {
		b.Run(lvl.String(), func(b *testing.B) {
			var solved, total int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				solved, total = 0, 0
				runPipeline(b, Config{MaxLevel: int(lvl)}, func(res *Result) {
					for _, gr := range res.Naming.Groups {
						if gr.IsRoot {
							continue
						}
						total++
						if gr.Chosen != nil && gr.Chosen.Consistent {
							solved++
						}
					}
				})
			}
			b.ReportMetric(float64(solved)/float64(total)*100, "solved%")
		})
	}
}

// BenchmarkAblationInstances measures the pipeline with and without the
// instance rules LI 6 / LI 7.
func BenchmarkAblationInstances(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"with", false}, {"without", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var firings int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				firings = 0
				runPipeline(b, Config{DisableInstances: mode.disable}, func(res *Result) {
					firings += res.Naming.Counters.LI[6] + res.Naming.Counters.LI[7]
				})
			}
			b.ReportMetric(float64(firings), "LI6+LI7")
		})
	}
}

// BenchmarkMatcher measures the matching substrate and reports its
// pairwise precision and recall against the ground-truth clusters.
func BenchmarkMatcher(b *testing.B) {
	d, err := dataset.ByName("Job")
	if err != nil {
		b.Fatal(err)
	}
	trees := d.Generate()
	for _, tr := range trees {
		tr.Root.Walk(func(n *schema.Node) bool {
			n.MultiClusters = nil
			return true
		})
	}
	var q match.Quality
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q = match.Evaluate(trees, match.Options{})
	}
	b.ReportMetric(q.Precision*100, "precision%")
	b.ReportMetric(q.Recall*100, "recall%")
}

// BenchmarkIntegrateAPI measures the public one-call entry point on the
// largest corpus (Hotels, 30 interfaces).
func BenchmarkIntegrateAPI(b *testing.B) {
	sources, err := BuiltinDomain("Hotels")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Integrate(sources); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegrate contrasts the serial and parallel pipeline on the
// largest corpus (Hotels, 30 interfaces) with the matcher enabled, so the
// two embarrassingly-parallel stages (pairwise matching, group solving)
// dominate. With GOMAXPROCS>1 the parallel variant should beat serial
// while producing byte-identical output (see TestParallelMatchesSerial).
func BenchmarkIntegrate(b *testing.B) {
	sources, err := BuiltinDomain("Hotels")
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Integrate(sources, WithMatcher(), WithParallelism(mode.workers)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
