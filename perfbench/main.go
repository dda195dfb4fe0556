// Command perfbench is the repository's benchmark. It builds on the real
// sfcserved binary of the checkout it runs in, drives one named
// workload, checks every sampled answer against an oracle, and prints the
// workload's metrics, the last line being one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (open-loop latency,
// closed-loop capacity, set-up time, memory and CPU per operation); with
// -trace 1 they are the per-layer ladder. A wrong answer or a violated
// workload property prints "correct": false and exits 1.
//
// Run it through perfbench/run.sh from the checkout root, which builds
// everything under .bench_build/ first:
//
//	bash perfbench/run.sh --workload hot-small --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh compare .bench_build/results/a.json .bench_build/results/b.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// errInvalid marks a run whose answers or workload properties failed its
// checks: the process exits 1 instead of 2.
var errInvalid = errors.New("invalid run")

// runEnv is one invocation's settings.
type runEnv struct {
	root    string // checkout root
	bin     string // directory holding the built daemons
	work    string // scratch directory for this run, removed at exit
	seed    int64
	seconds time.Duration
	trace   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the full record of one run, written under .bench_build/results.
type detail struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Fingerprint fingerprint       `json:"fingerprint"`
	Result      result            `json:"result"`
	Extra       map[string]any    `json:"extra"`
	Problems    []string          `json:"problems,omitempty"`
	Tags        map[string]string `json:"layer_tags,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if errors.Is(err, errInvalid) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "checkout root")
	bin := fs.String("bin", "", "directory holding sfcserved")
	workload := fs.String("workload", "", "hot-small, cold-large or stretch")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1: per-layer run (gctrace, spans, in-process ladder)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.Arg(0) == "compare" {
		return compare(fs.Args()[1:], stdout)
	}
	if *workload == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>")
	}
	sp, err := lookupSpec(*workload)
	if err != nil {
		return err
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	results := filepath.Join(absRoot, ".bench_build", "results")
	if err := os.MkdirAll(results, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(absRoot, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	env := &runEnv{root: absRoot, bin: *bin, work: work, seed: *seed,
		seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	det := &detail{Workload: *workload, Seed: *seed, Seconds: float64(*seconds), Trace: env.trace,
		Fingerprint: takeFingerprint(absRoot), Extra: map[string]any{}}
	spans := newSpanLog()
	var endToEnd, perLayer map[string]metric
	if sp == nil {
		endToEnd, perLayer, err = stretchMetrics(ctx, env, det, spans)
	} else {
		endToEnd, perLayer, err = servingMetrics(ctx, env, sp, det, spans)
	}
	if err != nil {
		return err
	}
	det.Result.Metrics = endToEnd
	if env.trace {
		det.Result.Metrics = perLayer
		det.Tags = layerTags
	}
	det.Result.Correct = len(det.Problems) == 0
	name := fmt.Sprintf("%s-seed%d-trace%d", *workload, *seed, *trace)
	if env.trace {
		if err := writeSpans(filepath.Join(results, name+"-spans.json"), spans.drain()); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(det, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(results, name+".json"), b, 0o644); err != nil {
		return err
	}
	printReport(stdout, det)
	line, err := json.Marshal(det.Result)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !det.Result.Correct {
		return fmt.Errorf("%w: %s", errInvalid, strings.Join(det.Problems, "; "))
	}
	return nil
}

func servingMetrics(ctx context.Context, env *runEnv, sp *spec, det *detail, spans *spanLog) (e2e, layers map[string]metric, err error) {
	rep, err := runServing(ctx, env, sp)
	if err != nil {
		return nil, nil, err
	}
	det.Problems = rep.problems
	ok := rep.closed.ok + rep.open.ok
	attempted := rep.closed.attempted + rep.open.attempted
	if rep.untracedClosed != nil {
		ok += rep.untracedClosed.ok
		attempted += rep.untracedClosed.attempted
	}
	det.Result.Attempted = attempted
	det.Result.Failed = attempted - ok + rep.wrong
	qps := rep.closed.windowedRate(false)
	o := &rep.open
	p99 := windowedPercentile(o.readLat, o.readAt, o.elapsed, 99, 1000)
	e2e = map[string]metric{
		"setup_s":       {median(rep.setups), "s"},
		"qps":           {qps, "1/s"},
		"p50_us":        {windowedPercentile(o.readLat, o.readAt, o.elapsed, 50, 100), "us"},
		"ttfb_p50_us":   {windowedPercentile(o.readTTFB, o.readAt, o.elapsed, 50, 100), "us"},
		"rss_mb":        {float64(rep.rssKB) / 1024, "MB"},
		"cpu_us_per_op": {us(rep.daemonCPU) / float64(max(rep.closed.ok+rep.open.ok, 1)), "us"},
		"cells_per_s":   {rep.closed.windowedRate(true), "1/s"},
	}
	hits, misses := rep.counters["cache.hits"], rep.counters["cache.misses"]
	x := det.Extra
	x["transport"] = rep.transport
	x["rss_peak_excludes_startup"] = rep.peakSinceServe
	x["connections"] = runtime.NumCPU()
	x["offered_rate_per_s"] = sp.rate
	x["setups_s"] = rep.setups
	x["fail_rate"] = float64(det.Result.Failed) / float64(max(attempted, 1))
	x["closed_ops"] = rep.closed.ok
	x["open_read_latency"] = summarize(rep.open.readLat)
	x["open_read_p99_windowed_us"] = p99
	x["open_p99_windows"] = windowPercentiles(o.readLat, o.readAt, o.elapsed, 99, 1000)
	x["closed_qps_windows"] = rep.closed.windowRates(false)
	x["open_read_ttfb"] = summarize(rep.open.readTTFB)
	x["closed_read_latency"] = summarize(rep.closed.readLat)
	x["open_undone"] = rep.open.undone
	x["gen_late"] = summarize(rep.open.late)
	x["gen_cpu_frac"] = rep.genCPU.Seconds() / rep.window.Seconds() / float64(runtime.NumCPU())
	x["verified_reads"] = rep.verified
	x["wrong_answers"] = rep.wrong
	x["daemon_cache_hit_rate"] = hits / max(hits+misses, 1)
	x["counters_per_op"] = rep.perOp
	if !env.trace {
		return e2e, nil, nil
	}
	lm, _, err := runLadder(ctx, env, sp, spans)
	if err != nil {
		return nil, nil, err
	}
	lm["proc.gc_cpu_frac"] = rep.gcCPUMS / 1e3 / max(rep.daemonCPU.Seconds(), 1e-9)
	lm["proc.heap_mb"] = rep.heapMB
	x["daemon_gc_cycles"] = rep.gcCycles
	lm["gen.late_p99_us"] = nearestRank(rep.open.late, 99)
	lm["gen.read_p99_us"] = p99
	lm["gen.cpu_frac"] = x["gen_cpu_frac"].(float64)
	lm["trace.overhead_frac"] = 1 - qps/rep.untracedClosed.windowedRate(false)
	for _, s := range rep.spans {
		spans.add(s)
	}
	return e2e, withUnits(lm), nil
}

func stretchMetrics(ctx context.Context, env *runEnv, det *detail, spans *spanLog) (e2e, layers map[string]metric, err error) {
	rep, err := runStretch(env, spans)
	if err != nil {
		return nil, nil, err
	}
	det.Problems = rep.problems
	det.Result.Attempted = rep.calls
	det.Result.Failed = rep.failed
	el := rep.elapsed.Seconds()
	e2e = map[string]metric{
		"setup_s":       {median(rep.setups), "s"},
		"qps":           {float64(rep.calls) / el, "1/s"},
		"p50_us":        {nearestRank(rep.lat, 50), "us"},
		"ttfb_p50_us":   {nearestRank(rep.ttfb, 50), "us"},
		"rss_mb":        {float64(rep.rssKB) / 1024, "MB"},
		"cpu_us_per_op": {us(rep.cpu) / float64(max(rep.calls, 1)), "us"},
		"cells_per_s":   {rep.cells / el, "1/s"},
	}
	x := det.Extra
	x["workers"] = runtime.NumCPU()
	x["engine_call_latency"] = summarize(rep.lat)
	x["passes"] = rep.passes
	x["fail_rate"] = float64(rep.failed) / float64(max(rep.calls, 1))
	if !env.trace {
		return e2e, nil, nil
	}
	// The serving rungs run on hot-small's inputs: stretch has no boxes of
	// its own, and every traced run reports the whole ladder.
	lm, probe, err := runLadder(ctx, env, specs["hot-small"], spans)
	if err != nil {
		return nil, nil, err
	}
	lm["gen.late_p99_us"] = probe.lateP99US
	lm["gen.read_p99_us"] = nearestRank(rep.lat, 99)
	lm["gen.cpu_frac"] = probe.cpuFrac
	lm["proc.gc_cpu_frac"] = rep.gcFrac
	lm["proc.heap_mb"] = rep.heapMB
	lm["trace.overhead_frac"] = rep.traceOverhead
	return e2e, withUnits(lm), nil
}

// withUnits attaches each per-layer metric's unit.
func withUnits(m map[string]float64) map[string]metric {
	out := make(map[string]metric, len(m))
	for k, v := range m {
		out[k] = metric{v, layerUnit(k)}
	}
	return out
}

func layerUnit(name string) string {
	_, field, _ := strings.Cut(name, ".")
	switch {
	case strings.HasSuffix(field, "_us"), strings.Contains(field, "_us_"):
		return "us"
	case strings.HasPrefix(field, "ns_per_"), strings.Contains(field, "_ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_rate"), strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasPrefix(name, "wire.bytes"):
		return "B"
	}
	return "count"
}

// layerTags names, for each per-layer metric family, the end-to-end
// metrics it should move and the workload it should move them on.
var layerTags = map[string]string{
	"query.":              "p50_us, qps, ttfb_p50_us on cold-large (not hot-small, >= 0.9 cache hits)",
	"service.cache":       "p50_us on hot-small (cold-large is ~0 by design)",
	"store.":              "qps, ttfb_p50_us, cpu_us_per_op on cold-large (small share of hot-small)",
	"service.merge":       "ttfb_p50_us, qps on cold-large",
	"service.first_batch": "ttfb_p50_us, qps on cold-large",
	"service.allocs":      "ttfb_p50_us, qps on cold-large",
	"wire.":               "qps, cpu_us_per_op on cold-large; per-frame cost on hot-small",
	"server.":             "gen.read_p99_us, p50_us, fail rate on hot-small",
	"client.":             "gen.read_p99_us, p50_us, fail rate on hot-small",
	"cluster.":            "p50_us, qps of routed reads; no benchmark workload routes yet",
	"durable.":            "put latency, p50_us, space amplification of durable members; no benchmark workload writes yet",
	"proc.":               "qps, rss_mb on cold-large",
	"core.":               "cells_per_s on stretch only",
	"gen.":                "validity of the run, all workloads",
	"gen.read_p99":        "the read tail on hot-small and cold-large; unbounded, host stalls move it run to run",
	"trace.":              "validity of the run, all workloads",
}

func tagFor(name string) string {
	best := ""
	for prefix := range layerTags {
		if strings.HasPrefix(name, prefix) && len(prefix) > len(best) {
			best = prefix
		}
	}
	return layerTags[best]
}

func printReport(w io.Writer, det *detail) {
	fmt.Fprintf(w, "workload=%s seed=%d seconds=%g trace=%v\n", det.Workload, det.Seed, det.Seconds, det.Trace)
	fp := det.Fingerprint
	fmt.Fprintf(w, "host: %s, nproc=%d, GOMAXPROCS=%d, %s, linux %s, code %s\n",
		fp.CPUModel, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.Kernel, fp.Commit)
	names := make([]string, 0, len(det.Result.Metrics))
	for k := range det.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := det.Result.Metrics[k]
		if det.Trace {
			fmt.Fprintf(w, "  %-36s %14.4f %-6s moves %s\n", k, m.Value, m.Unit, tagFor(k))
		} else {
			fmt.Fprintf(w, "  %-36s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	keys := make([]string, 0, len(det.Extra))
	for k := range det.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(det.Extra[k])
		fmt.Fprintf(w, "  %s: %s\n", k, b)
	}
	for _, p := range det.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "  attempted=%d failed=%d correct=%v\n", det.Result.Attempted, det.Result.Failed, len(det.Problems) == 0)
}

// compare prints two recorded runs side by side, refusing runs whose host
// fingerprints differ.
func compare(paths []string, w io.Writer) error {
	if len(paths) != 2 {
		return errors.New("usage: compare <a.json> <b.json>")
	}
	var ds [2]detail
	for i, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &ds[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	if ds[0].Fingerprint.hostKey() != ds[1].Fingerprint.hostKey() {
		return fmt.Errorf("%w: host fingerprints differ: %+v vs %+v", errInvalid, ds[0].Fingerprint, ds[1].Fingerprint)
	}
	if ds[0].Workload != ds[1].Workload || ds[0].Trace != ds[1].Trace {
		return fmt.Errorf("%w: different workloads or trace modes", errInvalid)
	}
	fmt.Fprintf(w, "%s: %s vs %s\n", ds[0].Workload, ds[0].Fingerprint.Commit, ds[1].Fingerprint.Commit)
	names := make([]string, 0)
	for k := range ds[0].Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := ds[0].Result.Metrics[k], ds[1].Result.Metrics[k]
		ratio := 0.0
		if a.Value != 0 {
			ratio = b.Value / a.Value
		}
		fmt.Fprintf(w, "  %-36s %14.4f %14.4f  x%.3f %s\n", k, a.Value, b.Value, ratio, a.Unit)
	}
	return nil
}
