package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// spanMetrics are the spans whose self time per op (<name>_ms) and call
// count (<name>_calls) the traced run reports. server.handler comes from
// the handler replay, the rest from the library replay.
var spanMetrics = []string{
	"server.handler", "schema.decode", "dataset.builtin", "qilabel.cachekey", "qilabel.integrate",
	"qilabel.validate", "match.assign", "merge.merge", "naming.run", "metrics.report",
	"translate.translate", "delta.add", "delta.update", "delta.remove", "delta.result",
	"discover.ingest", "discover.result", "extract.forms",
}

// traced replays the workload's first ops in-process three times from
// fresh state — through the server's handler, through the library calls
// with spans, and through the library calls without — and derives the
// per-layer metrics from the replays and the timed run's counters.
func traced(cfg runConfig, wl *workload, tr *timedRun) ([]metric, error) {
	ops := replayOps(wl, cfg.sizes.replay[wl.name])
	n := len(ops)
	runtime.GC()
	hr, err := runHandlerReplay(wl, ops)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rec := newRecorder()
	wallTraced, err := libraryReplay(wl, ops, rec)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	wallPlain, err := libraryReplay(wl, ops, nil)
	if err != nil {
		return nil, err
	}

	w := cfg.report
	fmt.Fprintf(w, "traced replay of %d ops; library self times, rows summing to the op span:\n", n)
	fmt.Fprint(w, selfTable(rec.spans, n))

	self, calls := selfTimes(rec.spans)
	hself, hcalls := selfTimes(hr.spans)
	self["server.handler"], calls["server.handler"] = hself["server.handler"], hcalls["server.handler"]
	var out []metric
	for _, name := range spanMetrics {
		out = append(out,
			metric{name + "_ms", perOp(self[name], n), "ms", "(self time per op)"},
			metric{name + "_calls", float64(calls[name]), "count", fmt.Sprintf("(over %d ops)", n)})
	}
	opTotal := rootTotal(rec.spans)
	library := opTotal - self["op"]
	out = append(out,
		metric{"replay.op_ms", perOp(opTotal, n), "ms", "(op span per op in the library replay)"},
		metric{"server.self_ms", perOp(hr.handler-library, n), "ms", "(handler replay minus the same ops' library spans; two replays' difference, below 0 within their noise)"},
		metric{"net.roundtrip_ms", clientMean(tr) - perOp(hr.handler, n), "ms", "(untraced client mean minus handler mean; includes waiting under load, below 0 within noise)"})

	d := func(after, before int64) int64 { return after - before }
	a, b := tr.after, tr.before
	cacheBase := d(a.Cache.Hits, b.Cache.Hits) + d(a.Cache.Misses, b.Cache.Misses) + d(a.Cache.Coalesced, b.Cache.Coalesced)
	hit := func(h, m, hb, mb int64) ratio { return ratio{d(h, hb), d(h, hb) + d(m, mb)} }
	ratios := []struct {
		name string
		r    ratio
	}{
		{"naming.warm_label_hit_ratio", hit(a.Warm.LabelHits, a.Warm.LabelMisses, b.Warm.LabelHits, b.Warm.LabelMisses)},
		{"naming.warm_verdict_hit_ratio", hit(a.Warm.VerdictHits, a.Warm.VerdictMisses, b.Warm.VerdictHits, b.Warm.VerdictMisses)},
		{"naming.warm_solve_hit_ratio", hit(a.Warm.SolveHits, a.Warm.SolveMisses, b.Warm.SolveHits, b.Warm.SolveMisses)},
		{"naming.warm_node_hit_ratio", hit(a.Warm.NodeHits, a.Warm.NodeMisses, b.Warm.NodeHits, b.Warm.NodeMisses)},
		{"match.warm_key_hit_ratio", hit(a.Warm.MatchKeyHits, a.Warm.MatchKeyMisses, b.Warm.MatchKeyHits, b.Warm.MatchKeyMisses)},
		{"match.warm_pair_hit_ratio", hit(a.Warm.MatchPairHits, a.Warm.MatchPairMisses, b.Warm.MatchPairHits, b.Warm.MatchPairMisses)},
		{"delta.source_hit_ratio", hit(a.Warm.SourceHits, a.Warm.SourceMisses, b.Warm.SourceHits, b.Warm.SourceMisses)},
		{"delta.reused_ratio", hit(a.Sessions.Reused, a.Sessions.Recomputed, b.Sessions.Reused, b.Sessions.Recomputed)},
		{"server.cache_hit_ratio", ratio{d(a.Cache.Hits, b.Cache.Hits), cacheBase}},
		{"server.coalesced_ratio", ratio{d(a.Cache.Coalesced, b.Cache.Coalesced), cacheBase}},
	}
	for _, x := range ratios {
		out = append(out,
			metric{x.name, x.r.Value(), "ratio", x.r.String()},
			metric{x.name + "_base", float64(x.r.Den), "count", "(timed window, from /metrics)"})
	}

	out = append(out,
		metric{"discover.created", float64(d(a.Discovery.Created, b.Discovery.Created)), "count", "(domains founded in the timed window)"},
		metric{"discover.merged", float64(d(a.Discovery.Merged, b.Discovery.Merged)), "count", "(domain merges in the timed window)"},
		metric{"server.rejected", float64(rejected(tr)), "count", "(503 responses in the timed window)"},
		metric{"runtime.alloc_mb_per_op", float64(hr.mem.TotalAlloc) / (1 << 20) / float64(n), "MB", "(handler replay)"},
		metric{"runtime.allocs_per_op", float64(hr.mem.Mallocs) / float64(n), "count", "(handler replay)"},
		metric{"runtime.gc_per_op", float64(hr.mem.NumGC) / float64(n), "count", "(handler replay)"},
		lagMetric(tr),
		metric{"trace.overhead_ratio", wallTraced.Seconds() / wallPlain.Seconds(), "ratio",
			fmt.Sprintf("(library replay %.3fs with spans, %.3fs without)", wallTraced.Seconds(), wallPlain.Seconds())})

	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return nil, err
	}
	prefix := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d", wl.name, wl.seed))
	if err := writeSpans(prefix+"-handler.jsonl", hr.spans); err != nil {
		return nil, err
	}
	if err := writeSpans(prefix+"-library.jsonl", rec.spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "spans written to %s-{handler,library}.jsonl\n", prefix)
	return out, nil
}

// latencyPhase is the phase latency is reported from: the open loop when
// there is one.
func (tr *timedRun) latencyPhase() []*outcome {
	if len(tr.open) > 0 {
		return tr.open
	}
	return tr.closed
}

// clientMean is the untraced mean time from send to reply, in ms, over
// the latency phase's successful ops.
func clientMean(tr *timedRun) float64 {
	var sum time.Duration
	var n int
	for _, o := range tr.latencyPhase() {
		if o.err == nil {
			sum += o.lat - o.lag
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return ms(sum) / float64(n)
}

func rejected(tr *timedRun) int {
	n := 0
	for _, o := range append(append([]*outcome(nil), tr.open...), tr.closed...) {
		for _, c := range o.calls {
			if c.status == 503 {
				n++
			}
		}
	}
	return n
}

// lagMetric is the p99 of send time minus due time over the open loop.
func lagMetric(tr *timedRun) metric {
	if len(tr.open) == 0 {
		return metric{"loadgen.lag_ms", 0, "ms", "(no open loop)"}
	}
	lags := make([]time.Duration, len(tr.open))
	for i, o := range tr.open {
		lags[i] = o.lag
	}
	return metric{"loadgen.lag_ms", ms(percentile(sortedDurations(lags), 99)), "ms",
		fmt.Sprintf("(p99 over %d open-loop sends)", len(lags))}
}
