// Command qibench is the repository benchmark. It starts qilabeld as a
// child process on a loopback port, drives one seeded workload at it from
// this single process, checks every response against in-process runs of
// the library, and prints the end-to-end metrics a client sees. With
// -trace 1 it also replays the same operations in-process, recording a
// span around every layer call, and prints per-layer metrics instead.
//
// qibench/run.sh builds this command and qilabeld from the checkout and
// runs it from the checkout's root:
//
//	bash qibench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (name → {value, unit}). The
// workloads and metrics are listed in BENCHMARK.json at the repository
// root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: read-hot, integrate-stream, session-edit or mega-cold")
		seed    = flag.Uint64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "measured seconds (open and closed phases together)")
		trace   = flag.Int("trace", 0, "1: also replay the ops in-process with spans and print the per-layer metrics")
		bin     = flag.String("daemon", "", "path of the qilabeld binary to launch")
		out     = flag.String("out", ".bench_build", "directory for daemon logs and span files")
	)
	flag.Parse()
	if *bin == "" || *name == "" {
		fmt.Fprintln(os.Stderr, "qibench: -workload and -daemon are required")
		os.Exit(2)
	}
	root, err := os.Getwd()
	if err == nil {
		err = os.MkdirAll(*out, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibench:", err)
		os.Exit(1)
	}
	// One load-generator process: no more connections, goroutines or
	// processors than the machine has CPUs.
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, err := run(runConfig{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		sizes: fullSizes, root: root, spanDir: filepath.Join(*out, "trace"), report: os.Stdout,
		launch: func() (target, error) { return startDaemon(*bin, filepath.Join(*out, "qilabeld.log")) },
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibench:", err)
		os.Exit(1)
	}
	line, err := res.json()
	if err != nil {
		fmt.Fprintln(os.Stderr, "qibench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct {
		os.Exit(1)
	}
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sizes    sizes
	root     string                 // checkout holding testdata/golden
	launch   func() (target, error) // starts a fresh qilabeld
	spanDir  string                 // where the traced run writes its spans
	report   io.Writer              // the human-readable report
}

// metric is one printed number.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func (r *result) json() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	m := make(map[string]value, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = value{x.value, x.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, m})
}

// setUp registers the workload's vocabularies and runs its priming and
// warm-up ops, returning their outcomes for the checks. A transport
// error or a failed status aborts the run.
func setUp(t transport, wl *workload) ([]*outcome, error) {
	for _, up := range wl.lexicons {
		st, data, err := t.do("PUT", "/v1/lexicons/"+up.alias, up.body)
		if err != nil {
			return nil, fmt.Errorf("PUT lexicon %s: %w", up.alias, err)
		}
		if st != 200 {
			return nil, fmt.Errorf("PUT lexicon %s: status %d: %s", up.alias, st, data)
		}
	}
	c := &client{t: t, wl: wl, forms: new(atomic.Int64)}
	ed := &editorState{}
	var outs []*outcome
	for _, o := range wl.setup {
		out := c.run(o, ed)
		if out.err != nil {
			return nil, fmt.Errorf("set-up %s: %w", o.kind, out.err)
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// timedRun is what the end-to-end part of a run measured.
type timedRun struct {
	open, closed []*outcome
	closedDur    time.Duration
	cpu          time.Duration
	steal        ratio // the machine's CPU time taken by its host, in ticks
	peakMB       float64
	before       serverMetrics
	after        serverMetrics
	setups       []float64
	primed       []*outcome // the kept daemon's set-up ops
	tail         []*outcome // untimed ingests of the rest of the stream
	tailDur      time.Duration
	discovered   []byte
}

// setups is how many times a run launches and sets up the daemon;
// setup_s is their median, so work moved into set-up shows steadily.
const setups = 5

// measure launches the daemon setups times, keeps the last one and
// drives the timed phases at it.
func measure(cfg runConfig, wl *workload, workers int) (*timedRun, error) {
	tr := &timedRun{}
	var tgt target
	var ht *httpTransport
	for k := range setups {
		t0 := time.Now()
		t, err := cfg.launch()
		if err != nil {
			return nil, err
		}
		h := newHTTPTransport(t.baseURL(), workers)
		tr.primed, err = setUp(h, wl)
		tr.setups = append(tr.setups, time.Since(t0).Seconds())
		if err != nil || k < setups-1 {
			h.close()
			err = errors.Join(err, t.stop())
			if err != nil {
				return nil, err
			}
			continue
		}
		tgt, ht = t, h
	}
	stop := func(err error) (*timedRun, error) {
		ht.close()
		return nil, errors.Join(err, tgt.stop())
	}

	var err error
	if tr.before, err = scrapeMetrics(ht); err != nil {
		return stop(err)
	}
	cpu0, err := procCPU(tgt.pid())
	if err != nil {
		return stop(err)
	}
	host0, err := hostCPU()
	if err != nil {
		return stop(err)
	}
	c := &client{t: ht, wl: wl, forms: new(atomic.Int64)}
	// The load generator collects less often while it measures; the
	// in-process checks afterwards run at the default again.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	tr.open = openLoop(c, wl.open, workers)
	var shared atomic.Int64
	steps := make([]int, workers)
	next := func(w int) *op {
		if len(wl.editors) > 0 {
			script := wl.editors[w]
			steps[w]++
			return script[(steps[w]-1)%len(script)]
		}
		return wl.closed[int(shared.Add(1)-1)%len(wl.closed)]
	}
	_, closedSec := wl.phases(cfg.seconds)
	tr.closed, tr.closedDur = closedLoop(c, next, workers, time.Duration(closedSec*float64(time.Second)))
	cpu1, err := procCPU(tgt.pid())
	if err != nil {
		return stop(err)
	}
	tr.cpu = cpu1 - cpu0
	host1, err := hostCPU()
	if err != nil {
		return stop(err)
	}
	tr.steal = ratio{host1.steal - host0.steal, host1.total - host0.total}
	if tr.peakMB, err = procPeakRSS(tgt.pid()); err != nil {
		return stop(err)
	}
	if tr.after, err = scrapeMetrics(ht); err != nil {
		return stop(err)
	}

	if len(wl.forms) > 0 {
		// The partition is checked over the whole stream, so the forms
		// the timed phase did not reach are ingested now, untimed.
		t0 := time.Now()
		for int(c.forms.Load()) < len(wl.forms) {
			tr.tail = append(tr.tail, c.run(&op{kind: opIngest}, nil))
		}
		tr.tailDur = time.Since(t0)
		st, data, err := ht.do("GET", "/v1/domains/discovered", nil)
		if err != nil || st != 200 {
			return stop(fmt.Errorf("listing discovered domains: status %d: %v", st, err))
		}
		tr.discovered = data
	}
	ht.close()
	return tr, tgt.stop()
}

func run(cfg runConfig) (*result, error) {
	sp, ok := specByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	wl, err := buildWorkload(sp, cfg.seed, cfg.sizes, cfg.seconds, cfg.root)
	if err != nil {
		return nil, fmt.Errorf("generating %s inputs: %w", sp.name, err)
	}
	workers := min(sp.clients, runtime.NumCPU())
	tr, err := measure(cfg, wl, workers)
	if err != nil {
		return nil, err
	}

	// Correctness, against untimed in-process runs.
	checkStart := time.Now()
	chk := newChecker(wl)
	timed := append(append([]*outcome(nil), tr.open...), tr.closed...)
	if err := chk.prepare(append(timed[:len(timed):len(timed)], tr.primed...), runtime.NumCPU()); err != nil {
		return nil, err
	}
	res := &result{attempted: len(timed)}
	var firstErr error
	for _, o := range timed {
		if err := chk.check(o); err != nil {
			o.err = err
			res.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("op %d (%s): %w", o.op.id, o.op.kind, err)
			}
		}
	}
	// Set-up responses (read-hot primes every builtin domain) and the
	// untimed rest of the stream are checked too; their failures fail
	// the run without counting as timed ops.
	var runChecks []error
	for _, o := range append(append([]*outcome(nil), tr.primed...), tr.tail...) {
		runChecks = append(runChecks, chk.check(o))
	}
	discovery := ""
	if tr.discovered != nil {
		found, truth, err := chk.checkPartition(tr.discovered)
		runChecks = append(runChecks, err)
		discovery = fmt.Sprintf("  discovery: %d domains over the stream's %d forms, generated as %d domains\n", found, len(wl.forms), truth)
	}
	for _, err := range runChecks {
		if err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	res.correct = res.failed == 0
	checkDur := time.Since(checkStart)

	w := cfg.report
	fmt.Fprintf(w, "workload %s, seed %d: %s; latency limit %s\n", sp.name, cfg.seed, wl.describe(cfg.seconds, workers), sp.limit)
	fmt.Fprintf(w, "  attempted %d  failed %d\n", res.attempted, res.failed)
	if firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", firstErr)
	}
	if len(wl.forms) > 0 {
		ingests := 0
		for _, o := range timed {
			if o.op.kind == opIngest {
				ingests++
			}
		}
		fmt.Fprintf(w, "  the timed phase sent %d ingests over the stream's %d forms; %d more were ingested untimed before the partition check\n",
			ingests, len(wl.forms), len(tr.tail))
	}
	fmt.Fprint(w, discovery)
	fmt.Fprintf(w, "  host steal during the timed phases: %s of CPU ticks\n", tr.steal)
	fmt.Fprintf(w, "  untimed: rest of the stream %.1fs, in-process reference checks %.1fs\n", tr.tailDur.Seconds(), checkDur.Seconds())
	e2e := endToEnd(wl, tr)
	printMetrics(w, e2e)
	fmt.Fprintf(w, "  by op kind: %s\n", byKind(tr.latencyPhase()))
	if !cfg.trace {
		res.metrics = e2eReported(e2e)
		return res, nil
	}
	layers, err := traced(cfg, wl, tr)
	if err != nil {
		return nil, err
	}
	printMetrics(w, layers)
	res.metrics = layers
	return res, nil
}

// describe states the loop type with its rate or client count.
func (wl *workload) describe(seconds float64, workers int) string {
	open, closed := wl.phases(seconds)
	s := fmt.Sprintf("closed loop, %d client(s), %.1fs", workers, closed)
	if open > 0 {
		s = fmt.Sprintf("open loop at %g ops/s for %.1fs, then %s", wl.openRate, open, s)
	}
	return s
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %14.4f %-6s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// endToEnd computes the metrics a client sees. Latency comes from the
// open-loop phase when the workload has one, else from the closed loop.
func endToEnd(wl *workload, tr *timedRun) []metric {
	latPhase := tr.open
	phase := "open loop"
	if len(latPhase) == 0 {
		latPhase, phase = tr.closed, "closed loop"
	}
	var lats []time.Duration
	for _, o := range latPhase {
		if o.err == nil {
			lats = append(lats, o.lat)
		}
	}
	sorted := sortedDurations(lats)
	tl := tailOf(sorted)

	all := append(append([]*outcome(nil), tr.open...), tr.closed...)
	var ok, inLimit, failed int64
	for _, o := range all {
		if o.err != nil {
			failed++
			continue
		}
		ok++
		if o.lat <= wl.limit {
			inLimit++
		}
	}
	var closedOK int64
	for _, o := range tr.closed {
		if o.err == nil {
			closedOK++
		}
	}
	slo := ratio{inLimit, int64(len(all))}
	capacity := 0.0
	if tr.closedDur > 0 {
		capacity = float64(closedOK) / tr.closedDur.Seconds()
	}
	cpuPerOp := 0.0
	if ok > 0 {
		cpuPerOp = ms(tr.cpu) / float64(ok)
	}
	return []metric{
		{"latency_p50_ms", ms(percentile(sorted, 50)), "ms", fmt.Sprintf("(%s, %d samples)", phase, len(sorted))},
		{"latency_tail_ms", ms(tl.Value), "ms", "(" + tl.String() + ")"},
		{"slo_ratio", slo.Value(), "ratio", fmt.Sprintf("%s within %s", slo, wl.limit)},
		{"capacity_ops_s", capacity, "ops/s", fmt.Sprintf("(%d ops in %.2fs, %d client(s))", closedOK, tr.closedDur.Seconds(), wl.clients)},
		{"failed_ratio", ratio{failed, int64(len(all))}.Value(), "ratio", ratio{failed, int64(len(all))}.String()},
		{"cpu_ms_per_op", cpuPerOp, "ms", fmt.Sprintf("(daemon %.0f ms user+system over %d ops)", ms(tr.cpu), ok)},
		{"rss_peak_mb", tr.peakMB, "MB", "(daemon VmHWM)"},
		{"setup_s", medianFloat(tr.setups), "s", fmt.Sprintf("(median of %d set-ups: %.3f)", len(tr.setups), tr.setups)},
	}
}

// byKind summarizes the latency phase per op kind: count, median and p90.
func byKind(outs []*outcome) string {
	lats := make(map[opKind][]time.Duration)
	for _, o := range outs {
		if o.err == nil {
			lats[o.op.kind] = append(lats[o.op.kind], o.lat)
		}
	}
	var parts []string
	for k := opIntegrate; k <= opIngest; k++ {
		if s := sortedDurations(lats[k]); len(s) > 0 {
			parts = append(parts, fmt.Sprintf("%s %d ops p50 %.3f ms p90 %.3f ms", k, len(s), ms(percentile(s, 50)), ms(percentile(s, 90))))
		}
	}
	return strings.Join(parts, "; ")
}

// ungated metrics are printed in every report but not carried in the
// JSON line BENCHMARK.json gates. failed_ratio is 0 in every correct run
// (the line's failed and attempted carry it). latency_tail_ms and, on
// read-hot, capacity_ops_s vary more from run to run on a shared 2-vCPU
// machine, whose host takes between 0.5% and 25% of its CPU time, than
// the largest bound a gated metric may have.
var ungated = map[string]bool{"failed_ratio": true, "latency_tail_ms": true, "capacity_ops_s": true}

// e2eReported lists the end-to-end metrics the JSON line carries.
func e2eReported(ms []metric) []metric {
	var out []metric
	for _, m := range ms {
		if !ungated[m.name] {
			out = append(out, m)
		}
	}
	return out
}
