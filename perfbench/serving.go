package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/store"
)

// maxLateP99 is how late the generator may always dispatch the open loop's
// 99th percentile request; checkProperties says when more is invalid.
const maxLateP99 = 10 * time.Millisecond

// genMemoryLimit is the generator's heap budget while it drives load.
const genMemoryLimit = 384 << 20

// maxRetained bounds the records a run keeps for verification.
const maxRetained = 1 << 20

// driveSettings puts the generator in its load-driving configuration and
// returns the function that restores the previous one. With light client
// work it runs its goroutines on procs OS threads, so the servers keep the
// host's other processors instead of queueing behind it. Its collector
// waits for a memory limit instead of running every time the heap doubles,
// so its pauses stay out of the latencies it measures.
func driveSettings(procs int) func() {
	p := runtime.GOMAXPROCS(procs)
	gc := debug.SetGCPercent(-1)
	lim := debug.SetMemoryLimit(genMemoryLimit)
	return func() {
		runtime.GOMAXPROCS(p)
		debug.SetGCPercent(gc)
		debug.SetMemoryLimit(lim)
	}
}

// deployment is one running sfcserved.
type deployment struct {
	d     *daemon
	setup time.Duration
}

// deploy starts the workload's daemon and times launch → /readyz answering.
func deploy(ctx context.Context, env *runEnv, sp *spec, gctrace bool) (*deployment, error) {
	hc := &http.Client{Timeout: 2 * time.Second}
	args := []string{"-addr", "127.0.0.1:0", "-wire-addr", "127.0.0.1:0",
		"-records", strconv.Itoa(sp.records), "-shards", strconv.Itoa(sp.shards),
		"-curve", sp.curve, "-d", strconv.Itoa(sp.d), "-k", strconv.Itoa(sp.k), "-seed", strconv.FormatInt(env.seed, 10)}
	start := time.Now()
	d, err := startDaemon("sfcserved", filepath.Join(env.bin, "sfcserved"), args, gctrace)
	if err != nil {
		return nil, err
	}
	addr, err := d.waitAddr(5 * time.Minute)
	if err == nil {
		d.base = "http://" + addr
		err = waitReady(ctx, hc, d)
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return &deployment{d: d, setup: time.Since(start)}, nil
}

// connect opens one client per connection to dp's front door, chosen as
// client.WireAddr discovery does: binary when /wireinfo advertises a
// listener, JSON otherwise.
func connect(ctx context.Context, dp *deployment, conns int) ([]*client.Client, string, error) {
	wireAddr, err := client.New(dp.d.base).WireAddr(ctx)
	if err != nil {
		return nil, "", fmt.Errorf("wireinfo: %w", err)
	}
	transport := "json"
	if wireAddr != "" {
		transport = "binary"
	}
	clients := make([]*client.Client, conns)
	noRetry := client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 1})
	for i := range clients {
		if wireAddr != "" {
			clients[i] = client.New(dp.d.base, noRetry, client.WithTransport(&client.BinaryTransport{Addr: wireAddr, Conns: 1}))
		} else {
			hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
			clients[i] = client.New(dp.d.base, noRetry, client.WithHTTPClient(hc))
		}
	}
	return clients, transport, nil
}

func closeAll(clients []*client.Client) {
	for _, cl := range clients {
		cl.Close()
	}
}

// servingReport is everything a serving run measured.
type servingReport struct {
	setups         []float64
	transport      string
	closed, open   phaseStats
	untracedClosed *phaseStats // trace mode: the closed phase on a daemon without gctrace and without spans
	daemonCPU      time.Duration
	rssKB          int64
	peakSinceServe bool // VmHWM was reset before the load, so rssKB excludes start-up
	genCPU         time.Duration
	window         time.Duration
	counters       map[string]float64            // /metrics deltas over the measured phases
	perOp          map[string]map[string]float64 // phase → counter deltas per successful operation
	gcCycles       int
	gcCPUMS        float64
	heapMB         float64
	wrong, dark    int
	verified       int
	problems       []string
	spans          []span
}

// runServing runs one serving workload end to end.
func runServing(ctx context.Context, env *runEnv, sp *spec) (*servingReport, error) {
	u, err := grid.New(sp.d, sp.k)
	if err != nil {
		return nil, err
	}
	c, err := curve.ByName(sp.curve, u, env.seed)
	if err != nil {
		return nil, err
	}
	rep := &servingReport{}

	// Set-up is timed several times, always without gctrace; only the last
	// deployment serves load.
	var dp *deployment
	for i := 0; i < sp.setups; i++ {
		if dp != nil {
			dp.d.stop()
		}
		if dp, err = deploy(ctx, env, sp, false); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, dp.setup.Seconds())
	}
	defer func() {
		if dp != nil {
			dp.d.stop()
		}
	}()

	conns := runtime.NumCPU()
	var clients []*client.Client
	defer func() { closeAll(clients) }()
	if clients, rep.transport, err = connect(ctx, dp, conns); err != nil {
		return nil, err
	}

	tr := newTrace(sp, u, env.seed)
	var checksMu sync.Mutex
	var checks []pendingCheck
	var dark, retained atomic.Int64
	var tracing atomic.Bool
	spans := newSpanLog()
	issue := func(ctx context.Context, w, idx int, o op) opResult {
		cl := clients[w]
		r := opResult{start: time.Now()}
		sp0 := spans.begin(tracing.Load())
		defer func() { spans.end(sp0, "client", idx, r) }()
		// Only reads sampled for verification keep their records, up to a
		// budget that keeps the generator's heap small.
		keep := idx%sp.verifyOne == 0 && retained.Load() < maxRetained
		var got []store.Record
		var pages int64
		complete := false
		if sp.stream {
			st, err := cl.QueryBoxStream(ctx, o.box)
			if err != nil {
				r.done = time.Now()
				return r
			}
			for {
				batch, err := st.Next()
				if r.first.IsZero() {
					r.first = time.Now()
				}
				if err == io.EOF {
					tl, _ := st.Trailer()
					complete, pages = tl.Complete(), tl.PagesRead
					break
				}
				if err != nil {
					st.Close()
					r.done = time.Now()
					return r
				}
				if keep {
					got = append(got, batch...)
				}
			}
			r.done = time.Now()
		} else {
			resp, err := cl.QueryBox(ctx, o.box)
			r.done = time.Now()
			r.first = r.done
			if err != nil {
				return r
			}
			complete, pages = resp.Complete, resp.PagesRead
			if keep {
				got = make([]store.Record, len(resp.Records))
				for i, wr := range resp.Records {
					got[i] = store.Record{Point: wr.Point, Payload: wr.Payload}
				}
			}
		}
		if !complete {
			dark.Add(1)
			return r
		}
		r.ok = true
		if keep {
			retained.Add(int64(len(got)))
			checksMu.Lock()
			checks = append(checks, pendingCheck{op: o, got: got, pages: pages})
			checksMu.Unlock()
		}
		return r
	}

	// A tenth of the run warms up, two tenths measure capacity in the
	// closed loop, and the rest measures latency in the open loop, whose
	// tail percentiles need the most samples.
	seconds := env.seconds
	warmDur := seconds / 10
	closedDur := seconds * 2 / 10
	openDur := seconds - warmDur - closedDur
	hc := &http.Client{Timeout: 5 * time.Second}
	var next atomic.Int64
	if env.trace {
		// Tracing's cost is the closed loop's throughput here, on the
		// untraced deployment without spans, against the traced closed
		// loop below: a daemon under GODEBUG=gctrace=1 with a span around
		// every client call.
		restore := driveSettings(sp.genProcs)
		closedLoop(ctx, conns, warmDur, &next, tr.op, issue)
		base := closedLoop(ctx, conns, closedDur, &next, tr.op, issue)
		restore()
		rep.untracedClosed = &base
		closeAll(clients)
		clients = nil
		dp.d.stop()
		if dp, err = deploy(ctx, env, sp, true); err != nil {
			return nil, err
		}
		if clients, _, err = connect(ctx, dp, conns); err != nil {
			return nil, err
		}
	}
	pid := dp.d.cmd.Process.Pid
	// Peak memory is the serving peak: where the bulkload's transient peak
	// lands depends on collector timing, and set-up has its own metric.
	rep.peakSinceServe = resetPeakRSS(pid) == nil
	restore := driveSettings(sp.genProcs)
	defer restore()
	closedLoop(ctx, conns, warmDur, &next, tr.op, issue) // caches fill; not measured
	before, err := scrape(ctx, hc, dp.d.base)
	if err != nil {
		return nil, err
	}
	procBefore, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	selfBefore, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	winStart := time.Now()
	tracing.Store(env.trace)
	rep.closed = closedLoop(ctx, conns, closedDur, &next, tr.op, issue)
	tracing.Store(false)
	mid, err := scrape(ctx, hc, dp.d.base)
	if err != nil {
		return nil, err
	}
	first := int(next.Load())
	sched := schedule(sp.rate, openDur)
	rep.open = openLoop(ctx, conns, sched, first, openDur/4+2*time.Second, tr.op, issue)
	winEnd := time.Now()
	restore()
	rep.window = winEnd.Sub(winStart)
	selfAfter, err := readProc(os.Getpid())
	if err != nil {
		return nil, err
	}
	procAfter, err := readProc(pid)
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, hc, dp.d.base)
	if err != nil {
		return nil, err
	}
	rep.genCPU = selfAfter.cpu - selfBefore.cpu
	rep.daemonCPU = procAfter.cpu - procBefore.cpu
	rep.rssKB = procAfter.hwmKB
	rep.counters = delta(before, after)
	rep.perOp = map[string]map[string]float64{
		"closed": perOp(delta(before, mid), rep.closed.ok),
		"open":   perOp(delta(mid, after), rep.open.ok),
	}
	if env.trace {
		rep.gcCycles, rep.gcCPUMS, rep.heapMB = dp.d.gcWindow(winStart, winEnd)
		rep.spans = spans.drain()
	}
	rep.dark = int(dark.Load())

	// The daemon must still be up: a death invalidates the run.
	if !dp.d.alive() {
		rep.problems = append(rep.problems, "sfcserved died during the run")
	}
	checkProperties(sp, rep)

	// Answers are checked after the clock stops, so verification never
	// competes with the server for CPU.
	or := newOracle(c, chaos.SyntheticRecords(u, env.seed, sp.records))
	for _, pc := range checks {
		err := or.verify(answerCheck{box: pc.op.box, got: pc.got, complete: true, pages: pc.pages, want: or.answer(pc.op.box)})
		rep.verified++
		if err != nil {
			rep.wrong++
			if rep.wrong <= 3 {
				rep.problems = append(rep.problems, err.Error())
			}
		}
	}
	if rep.verified == 0 {
		rep.problems = append(rep.problems, "no read was verified")
	}
	return rep, nil
}

type pendingCheck struct {
	op    op
	got   []store.Record
	pages int64
}

// checkProperties asserts the workload's defining property and the
// run-validity conditions, appending a problem for each violation.
func checkProperties(sp *spec, rep *servingReport) {
	hits, misses := rep.counters["cache.hits"], rep.counters["cache.misses"]
	rate := 0.0
	if hits+misses > 0 {
		rate = hits / (hits + misses)
	}
	if rate < sp.minHitRate || rate > sp.maxHitRate {
		rep.problems = append(rep.problems, fmt.Sprintf("cache hit rate %.3f outside [%.2f, %.2f]", rate, sp.minHitRate, sp.maxHitRate))
	}
	if rep.dark > 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d reads came back incomplete (dark intervals)", rep.dark))
	}
	// The generator fell behind when its own dispatch lateness is a large
	// part of the tail it reports. Lateness alone is no verdict: when the
	// whole host stalls, the generator and the server stall together, and
	// the run still measures a slow server.
	late := nearestRank(rep.open.late, 99)
	if tail := nearestRank(rep.open.readLat, 99); late > float64(maxLateP99.Microseconds()) && late > tail/2 {
		rep.problems = append(rep.problems, fmt.Sprintf("generator fell behind: p99 dispatch lateness %.0fus > %v and > half the p99 read latency %.0fus", late, maxLateP99, tail))
	}
}

// perOp turns a phase's counter deltas into per-operation ratios over its
// ops successful operations.
func perOp(d map[string]float64, ops int) map[string]float64 {
	out := map[string]float64{}
	for k, v := range d {
		if v != 0 && ops > 0 {
			out[k] = v / float64(ops)
		}
	}
	return out
}
