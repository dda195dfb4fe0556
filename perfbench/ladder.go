package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
)

// The ladder times each serving layer's public call in-process on the
// workload's own generated inputs, one rung per layer, so rung differences
// give self time and a regression points at one layer. Every traced run
// climbs the whole ladder; a workload that does not route through a layer
// still measures it on its inputs, and the per-layer table in the run's
// report says which workload each number should move.

// ladderRecords caps the record set of the cluster and durable rungs, which
// hold several copies of it: they load the synthetic set's first
// ladderRecords records (SyntheticRecords is prefix-stable in n), which
// keeps their memory and load time small.
const ladderRecords = 300_000

// putPayloadBase tags every payload the durable rung writes: the synthetic
// set uses payloads 0..records-1, so the top bit keeps the rung's puts in a
// namespace of their own.
const putPayloadBase = uint64(1) << 63

// ladderReads is how many reads of the trace each rung replays.
func ladderReads(sp *spec) int {
	if sp.distinct > 0 {
		return 3000
	}
	return 150
}

type ladder struct {
	env   *runEnv
	sp    *spec
	c     curve.Curve
	u     *grid.Universe
	recs  []store.Record
	boxes []query.Box
	ivs   [][]query.Interval
	m     map[string]float64
	probe genProbe
	spans *spanLog
}

// genProbe is how the generator kept up while driving the server rung's
// open loop: the generator columns of a workload that has no open loop.
type genProbe struct{ lateP99US, cpuFrac float64 }

// runLadder measures every per-layer metric except the process, generator
// and tracing columns, which come from the traced workload run itself.
func runLadder(ctx context.Context, env *runEnv, sp *spec, spans *spanLog) (map[string]float64, genProbe, error) {
	u, err := grid.New(sp.d, sp.k)
	if err != nil {
		return nil, genProbe{}, err
	}
	c, err := curve.ByName(sp.curve, u, env.seed)
	if err != nil {
		return nil, genProbe{}, err
	}
	l := &ladder{env: env, sp: sp, c: c, u: u, m: map[string]float64{}, spans: spans,
		recs: chaos.SyntheticRecords(u, env.seed, sp.records)}
	tr := newTrace(sp, u, env.seed)
	for i := 0; i < ladderReads(sp); i++ {
		l.boxes = append(l.boxes, tr.op(i).box)
	}
	l.queryRung()
	svc, err := service.New(c, l.recs, service.WithShards(sp.shards))
	if err != nil {
		return nil, genProbe{}, err
	}
	defer svc.Close()
	steps := []func(context.Context, *service.Service) error{
		l.cacheRung, l.storeAndMergeRungs, l.serverRung,
	}
	for _, step := range steps {
		if err := step(ctx, svc); err != nil {
			return nil, genProbe{}, err
		}
	}
	svc.Close()
	if err := l.clusterRung(ctx); err != nil {
		return nil, genProbe{}, err
	}
	if err := l.durableRung(ctx); err != nil {
		return nil, genProbe{}, err
	}
	coreRung(env, l.m)
	return l.m, l.probe, nil
}

func (l *ladder) queryRung() {
	var total time.Duration
	var intervals int
	for i, b := range l.boxes {
		t := time.Now()
		ivs := query.DecomposeBox(l.c, b)
		el := time.Since(t)
		l.spans.add(span{Layer: "query.DecomposeBox", ID: i, Start: t.Sub(l.spans.epoch).Nanoseconds(), End: t.Add(el).Sub(l.spans.epoch).Nanoseconds()})
		total += el
		intervals += len(ivs)
		l.ivs = append(l.ivs, ivs)
	}
	n := float64(len(l.boxes))
	l.m["query.intervals_per_box"] = float64(intervals) / n
	l.m["query.decompose_us"] = us(total) / n
}

// cacheRung replays the reads through the service's box path and reads the
// decomposition cache's counters.
func (l *ladder) cacheRung(ctx context.Context, svc *service.Service) error {
	reg := svc.Metrics()
	h0, m0 := reg.Counter("cache.hits").Value(), reg.Counter("cache.misses").Value()
	for _, b := range l.boxes {
		if _, err := svc.Range(ctx, b); err != nil {
			return fmt.Errorf("service rung: %w", err)
		}
	}
	h, m := reg.Counter("cache.hits").Value()-h0, reg.Counter("cache.misses").Value()-m0
	l.m["service.cache_hit_rate"] = float64(h) / float64(max(h+m, 1))
	return nil
}

// storeAndMergeRungs times, per read, the shard stores' page cursors alone
// and then the service's merged stream over the same intervals; the
// difference is the merge's self time. The same records then feed the wire
// codec rung.
func (l *ladder) storeAndMergeRungs(ctx context.Context, svc *service.Service) error {
	var storeT, mergeSelf, first time.Duration
	var recsOut, pages int64
	var encT, decT time.Duration
	var bytesOut, frames int64
	var buf []byte
	var slab []uint32
	var decoded []store.Record
	var coords []uint32
	var payloads []uint64
	n := len(l.boxes)

	mallocs := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.Mallocs
	}
	storeAllocs, mergeAllocs := uint64(0), uint64(0)
	for i := range l.boxes {
		ivs := l.ivs[i]
		a0 := mallocs()
		t := time.Now()
		var leaf int64
		for j := 0; j < svc.Shards(); j++ {
			st := svc.Shard(j)
			before := st.Stats().LeafReads
			cur, err := st.ScanCursor(ivs)
			if err != nil {
				return fmt.Errorf("store rung: %w", err)
			}
			for {
				b, err := cur.Next(ctx)
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					cur.Close()
					return fmt.Errorf("store rung: %w", err)
				}
				recsOut += int64(len(b.Records))
			}
			cur.Close()
			leaf += int64(st.Stats().LeafReads - before)
		}
		st := time.Since(t)
		storeAllocs += mallocs() - a0
		storeT += st
		pages += leaf

		a0 = mallocs()
		t = time.Now()
		stream, err := svc.ScanStream(ctx, ivs)
		if err != nil {
			return fmt.Errorf("merge rung: %w", err)
		}
		// The answer is copied into buffers reused across reads, so the
		// allocation count is the merge's own.
		coords, payloads = coords[:0], payloads[:0]
		firstSeen := false
		for {
			b, err := stream.Next()
			if !firstSeen {
				first += time.Since(t)
				firstSeen = true
			}
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				stream.Close()
				return fmt.Errorf("merge rung: %w", err)
			}
			for _, r := range b {
				coords = append(coords, r.Point...)
				payloads = append(payloads, r.Payload)
			}
		}
		stream.Close()
		mt := time.Since(t)
		mergeAllocs += mallocs() - a0
		d := l.u.D()
		got := make([]store.Record, len(payloads))
		for j := range got {
			got[j] = store.Record{Point: coords[j*d : (j+1)*d], Payload: payloads[j]}
		}
		mergeSelf += mt - st
		ep := l.spans.epoch
		l.spans.add(span{Layer: "service.ScanStream", ID: i, Start: t.Sub(ep).Nanoseconds(), End: t.Add(mt).Sub(ep).Nanoseconds()})

		// Wire rung: the server sends results in batches of at most
		// wireBatch records (none for an empty answer), then a trailer.
		for lo := 0; lo < len(got); lo += wireBatch {
			hi := min(lo+wireBatch, len(got))
			t = time.Now()
			buf, err = wire.AppendBatchPayload(buf[:0], got[lo:hi])
			encT += time.Since(t)
			if err != nil {
				return fmt.Errorf("wire rung: %w", err)
			}
			bytesOut += int64(len(buf))
			t = time.Now()
			decoded, slab, err = wire.DecodeBatchInto(buf, decoded[:0], slab[:0])
			decT += time.Since(t)
			if err != nil {
				return fmt.Errorf("wire rung: %w", err)
			}
			if len(decoded) != hi-lo {
				return fmt.Errorf("wire rung: decoded %d records, encoded %d", len(decoded), hi-lo)
			}
			frames++
		}
		frames++ // the trailer
	}
	fn := float64(n)
	rn := float64(max(recsOut, 1))
	l.m["store.pages_per_query"] = float64(pages) / fn
	l.m["store.ns_per_record"] = float64(storeT.Nanoseconds()) / rn
	l.m["store.allocs_per_query"] = float64(storeAllocs) / fn
	l.m["service.merge_self_us"] = us(mergeSelf) / fn
	l.m["service.first_batch_us"] = us(first) / fn
	l.m["service.allocs_per_query"] = float64(mergeAllocs) / fn
	l.m["wire.encode_ns_per_record"] = float64(encT.Nanoseconds()) / rn
	l.m["wire.decode_ns_per_record"] = float64(decT.Nanoseconds()) / rn
	l.m["wire.bytes_per_record"] = float64(bytesOut) / rn
	l.m["wire.frames_per_query"] = float64(frames) / fn
	return nil
}

// wireBatch is the record count of one streamed TBatch frame.
const wireBatch = 4096

// serverRung serves the in-process service over the binary wire protocol
// on loopback and drives it with the workload's reads in an open loop at
// the workload's rate, for about a second.
func (l *ladder) serverRung(ctx context.Context, svc *service.Service) error {
	srv, err := server.New(svc)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.ServeWire(ln) }()
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(dctx) // the rung's numbers are already taken
		ln.Close()
		<-serveDone
	}()
	reg := svc.Metrics()
	conns := runtime.NumCPU()
	clients := make([]*client.Client, conns)
	for i := range clients {
		clients[i] = client.New("http://unused.invalid", client.WithTransport(&client.BinaryTransport{Addr: ln.Addr().String(), Conns: 1}))
		defer clients[i].Close()
	}
	var selfNS atomic.Int64
	readOp := func(i int) op { return op{box: l.boxes[i%len(l.boxes)]} }
	issue := func(ctx context.Context, w, _ int, o op) opResult {
		r := opResult{start: time.Now()}
		resp, err := clients[w].QueryBox(ctx, o.box)
		r.done = time.Now()
		r.first = r.done
		if err == nil && resp.Complete {
			r.ok = true
			selfNS.Add(r.done.Sub(r.start).Nanoseconds() - resp.ElapsedUS*1000)
		}
		return r
	}
	q0, qw0, qc0 := reg.Counter("server.requests").Value(), reg.Histogram("server.queue_wait_us").Sum(), reg.Histogram("server.queue_wait_us").Count()
	shed0 := reg.Counter("server.shed").Value()
	sched := schedule(l.sp.rate, time.Second)
	self0 := readProcSelf()
	ps := openLoop(ctx, conns, sched, 0, 2*time.Second, readOp, issue)
	l.probe.cpuFrac = (readProcSelf() - self0).Seconds() / ps.elapsed.Seconds() / float64(runtime.NumCPU())
	reqs := reg.Counter("server.requests").Value() - q0
	var retries, queries int64
	for _, cl := range clients {
		s := cl.Stats()
		retries += s.Retries
		queries += s.Queries
	}
	qc := reg.Histogram("server.queue_wait_us").Count() - qc0
	l.m["server.queue_wait_us"] = float64(reg.Histogram("server.queue_wait_us").Sum()-qw0) / float64(max(qc, 1))
	l.m["server.shed_rate"] = float64(reg.Counter("server.shed").Value()-shed0) / float64(max(reqs, 1))
	l.m["client.rtt_self_us"] = float64(selfNS.Load()) / 1e3 / float64(max(ps.ok, 1))
	l.m["client.retries_per_op"] = float64(retries) / float64(max(queries, 1))
	l.probe.lateP99US = nearestRank(ps.late, 99)
	return nil
}

func readProcSelf() time.Duration {
	s, err := readProc(os.Getpid())
	if err != nil {
		return 0
	}
	return s.cpu
}

// localNode is an in-process cluster member: the router's Node interface
// over a service, with a span around every leg so the router's self time
// is its span minus the legs it waited on.
type localNode struct {
	svc  *service.Service
	legs *legLog
}

// legLog collects the member spans of the routed query in flight.
type legLog struct {
	epoch time.Time
	mu    sync.Mutex
	n     int
	spans []span
}

func (g *legLog) add(s span) {
	g.mu.Lock()
	g.n++
	g.spans = append(g.spans, s)
	g.mu.Unlock()
}

// take returns and clears the spans collected so far.
func (g *legLog) take() []span {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := g.spans
	g.spans = nil
	return out
}

func (n *localNode) Scan(ctx context.Context, ivs []query.Interval, _ time.Duration) (store.ScanResult, error) {
	t := time.Now()
	res, err := n.svc.Scan(ctx, ivs)
	n.legs.add(span{Layer: "cluster.Node.Scan", Parent: "cluster.Router.Query",
		Start: t.Sub(n.legs.epoch).Nanoseconds(), End: time.Since(n.legs.epoch).Nanoseconds()})
	if err != nil {
		return store.ScanResult{}, err
	}
	return store.ScanResult{Records: res.Records, Unavailable: res.Unavailable, PagesRead: int(res.PagesRead)}, nil
}

func (n *localNode) Ready(context.Context) bool { return true }
func (n *localNode) Put(ctx context.Context, r store.Record, _ time.Duration) error {
	return n.svc.Put(ctx, r)
}
func (n *localNode) Delete(ctx context.Context, r store.Record, _ time.Duration) error {
	return n.svc.Delete(ctx, r)
}
func (n *localNode) Flush(ctx context.Context, _ time.Duration) error { return n.svc.Flush(ctx) }
func (n *localNode) Digest(ctx context.Context, ivs []query.Interval, _ time.Duration) (service.RangeDigest, error) {
	return n.svc.Digest(ctx, ivs)
}

// clusterRung routes the reads through an in-process router over three
// in-process members holding their replicated ranges (R=2).
func (l *ladder) clusterRung(ctx context.Context) error {
	const members, replicas = 3, 2
	topo, err := cluster.NewTopology(l.c, members, replicas)
	if err != nil {
		return err
	}
	recs := l.recs[:min(len(l.recs), ladderRecords)]
	legs := &legLog{epoch: l.spans.epoch}
	nodes := make([]cluster.Node, members)
	for i := range nodes {
		var held []store.Record
		for _, r := range recs {
			if topo.HoldsKey(i, l.c.Index(r.Point)) {
				held = append(held, r)
			}
		}
		svc, err := service.New(l.c, held, service.WithShards(2))
		if err != nil {
			return err
		}
		defer svc.Close()
		nodes[i] = &localNode{svc: svc, legs: legs}
	}
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(topo, nodes, cluster.WithRouterMetrics(reg))
	if err != nil {
		return err
	}
	var self time.Duration
	for i, b := range l.boxes {
		t := time.Now()
		res, err := rt.Query(ctx, b)
		end := time.Now()
		if err != nil {
			return fmt.Errorf("cluster rung: %w", err)
		}
		if !res.Complete() {
			return fmt.Errorf("cluster rung: box %v came back with dark intervals", b)
		}
		parent := span{Layer: "cluster.Router.Query", ID: i, Start: t.Sub(l.spans.epoch).Nanoseconds(), End: end.Sub(l.spans.epoch).Nanoseconds()}
		children := legs.take()
		self += selfTime(parent, children)
		l.spans.add(parent)
		for _, c := range children {
			c.ID = i
			l.spans.add(c)
		}
	}
	n := float64(len(l.boxes))
	l.m["cluster.legs_per_query"] = float64(legs.n) / n
	l.m["cluster.router_self_us"] = us(self) / n
	l.m["cluster.hedge_rate"] = float64(reg.Counter("router.hedges").Value()) / n
	l.m["cluster.failover_rate"] = float64(reg.Counter("router.failovers").Value()) / n
	return nil
}

// durableRung measures the durable write path in-process: put latency
// (each put is fsynced), reads with an empty and with a nearly full
// memtable, and how often puts trigger flushes and compactions.
func (l *ladder) durableRung(ctx context.Context) error {
	dir := filepath.Join(l.env.work, "ladder-durable")
	defer os.RemoveAll(dir)
	const shards = 2
	recs := l.recs[:min(len(l.recs), ladderRecords)]
	svc, err := service.New(l.c, recs, service.WithShards(shards), service.WithDurableDir(dir))
	if err != nil {
		return err
	}
	defer svc.Close() // idempotent; the success path closes first to wait for compaction
	reg := svc.Metrics()
	reads := l.boxes[:min(len(l.boxes), 200)]
	scan := func() (time.Duration, error) {
		t := time.Now()
		for _, b := range reads {
			if _, err := svc.Range(ctx, b); err != nil {
				return 0, err
			}
		}
		return time.Since(t) / time.Duration(len(reads)), nil
	}
	r := rng{s: uint64(l.env.seed) ^ 0xd0e}
	var putT time.Duration
	puts := 0
	put := func(k int) error {
		for i := 0; i < k; i++ {
			p := l.u.NewPoint()
			for d := range p {
				p[d] = uint32(r.next() % uint64(l.u.Side()))
			}
			t := time.Now()
			if err := svc.Put(ctx, store.Record{Point: p, Payload: putPayloadBase | uint64(puts)}); err != nil {
				return fmt.Errorf("durable rung: %w", err)
			}
			putT += time.Since(t)
			puts++
		}
		return nil
	}
	if err := svc.Flush(ctx); err != nil {
		return err
	}
	empty, err := scan()
	if err != nil {
		return err
	}
	// 900 puts per shard stay below the default 1024-operation memtable
	// limit, so the next reads merge runs with a nearly full memtable.
	if err := put(900 * shards); err != nil {
		return err
	}
	full, err := scan()
	if err != nil {
		return err
	}
	f0, c0 := reg.Counter("durable.flushes").Value(), reg.Counter("durable.compactions").Value()
	h := reg.Histogram("durable.flush_us")
	hs0, hc0 := h.Sum(), h.Count()
	// 3200 more puts per shard cross the memtable limit three more times,
	// enough runs for a background compaction; Close waits for it.
	const fill = 3200 * shards
	if err := put(fill); err != nil {
		return err
	}
	if err := svc.Close(); err != nil {
		return fmt.Errorf("durable rung: %w", err)
	}
	kput := float64(fill) / 1000
	l.m["durable.put_us"] = us(putT) / float64(puts)
	l.m["durable.scan_us_mem_empty"] = us(empty)
	l.m["durable.scan_us_mem_full"] = us(full)
	l.m["durable.flushes_per_kput"] = float64(reg.Counter("durable.flushes").Value()-f0) / kput
	l.m["durable.compactions_per_kput"] = float64(reg.Counter("durable.compactions").Value()-c0) / kput
	l.m["durable.flush_us"] = float64(h.Sum()-hs0) / float64(max(h.Count()-hc0, 1))
	return nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
