package server_test

import (
	"bytes"
	"context"
	"io/fs"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/curve"
	"repro/internal/faultio"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// writeOp is one step of a deterministic write workload: a put, a delete,
// or a flush, pre-drawn so the exact same sequence can be replayed against
// two daemons.
type writeOp struct {
	kind int // 0 = put, 1 = delete, 2 = flush
	rec  store.Record
}

// randomWriteOps draws n operations over u: mostly puts (some duplicating
// an earlier record, so the multiset semantics are exercised), deletes of
// previously put records, and occasional flushes that cut memtable → run
// boundaries at deterministic points.
func randomWriteOps(rng *rand.Rand, u *grid.Universe, n int) []writeOp {
	ops := make([]writeOp, 0, n)
	var live []store.Record
	for i := 0; i < n; i++ {
		r := rng.Float64()
		switch {
		case r < 0.06:
			ops = append(ops, writeOp{kind: 2})
		case r < 0.22 && len(live) > 0:
			j := rng.Intn(len(live))
			rec := live[j]
			ops = append(ops, writeOp{kind: 1, rec: rec})
			// Delete removes every instance of (point, payload); drop them
			// all from the live set too.
			kept := live[:0]
			for _, l := range live {
				if !l.Point.Equal(rec.Point) || l.Payload != rec.Payload {
					kept = append(kept, l)
				}
			}
			live = kept
		default:
			var rec store.Record
			if len(live) > 0 && rng.Float64() < 0.15 {
				rec = live[rng.Intn(len(live))] // duplicate instance
			} else {
				p := u.NewPoint()
				for d := range p {
					p[d] = uint32(rng.Intn(int(u.Side())))
				}
				rec = store.Record{Point: p, Payload: uint64(10_000 + i)}
			}
			ops = append(ops, writeOp{kind: 0, rec: rec})
			live = append(live, rec)
		}
	}
	return ops
}

// newDurableDifferentialServer builds an empty durable daemon over dir —
// 2 shards, 32×32 cells — whose on-disk run devices are wrapped with a
// deterministic transient-fault injector (pure function of the seed and
// per-page attempt number, so two daemons built alike fault alike). It
// serves both front doors and returns a JSON client and a binary client.
func newDurableDifferentialServer(t *testing.T, dir string, seed int64) (jsonCl, binCl *client.Client, svc *service.Service, injectors func() []*faultio.Injector) {
	t.Helper()
	u := grid.MustNew(2, 5)
	c := curve.NewHilbert(u)
	var mu sync.Mutex
	var injs []*faultio.Injector
	svc, err := service.New(c, nil,
		service.WithShards(2),
		service.WithDurableDir(dir),
		service.WithDurableShardOptions(func(j int) []store.DurableOption {
			return []store.DurableOption{
				store.WithAutoCompact(false), // no background compaction racing the byte-level comparison
				store.WithRunWrapper(func(dev store.PageDevice) (store.PageDevice, error) {
					in, err := faultio.Wrap(dev, faultio.Config{
						Seed:          seed + int64(j)*1009,
						TransientProb: 0.15,
					})
					if err != nil {
						return nil, err
					}
					mu.Lock()
					injs = append(injs, in)
					mu.Unlock()
					return in, nil
				}),
			}
		}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(hl)
	t.Cleanup(func() { hl.Close() })
	wireAddr := startWire(t, srv)

	jsonCl = client.New("http://" + hl.Addr().String())
	binCl = client.New("http://"+hl.Addr().String(),
		client.WithTransport(&client.BinaryTransport{Addr: wireAddr}))
	t.Cleanup(func() { jsonCl.Close(); binCl.Close() })
	snapshot := func() []*faultio.Injector {
		mu.Lock()
		defer mu.Unlock()
		return append([]*faultio.Injector(nil), injs...)
	}
	return jsonCl, binCl, svc, snapshot
}

// applyOp runs one workload step through cl and returns the server's ack.
func applyOp(ctx context.Context, cl *client.Client, op writeOp) (wiretext.WriteResponse, error) {
	switch op.kind {
	case 0:
		return cl.Put(ctx, op.rec)
	case 1:
		return cl.Delete(ctx, op.rec)
	default:
		return cl.Flush(ctx)
	}
}

// hashDir reads every regular file under dir into a map keyed by relative
// path. Two durable directories are "bit-identical" when the maps match.
func hashDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = b
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTransportDifferentialWrites: the binary write path is an encoding,
// not a different database. The same deterministic put/delete/flush
// workload is driven through a JSON client against one empty durable
// daemon and through the binary transport against another built alike
// (same geometry, same transient-fault schedule on the run devices). Every
// ack must agree; afterwards the two daemons must hold bit-identical
// durable state — same full-curve scan record for record, same range
// digest, and byte-for-byte identical WAL, manifest, and run files on
// disk.
func TestTransportDifferentialWrites(t *testing.T) {
	jsonDir, binDir := t.TempDir(), t.TempDir()
	jsonCl, _, jsonSvc, jsonInjs := newDurableDifferentialServer(t, jsonDir, 99)
	_, binCl, binSvc, binInjs := newDurableDifferentialServer(t, binDir, 99)

	u := grid.MustNew(2, 5)
	ops := randomWriteOps(rand.New(rand.NewSource(31)), u, 240)
	ctx := context.Background()

	puts, deletes := 0, 0
	for i, op := range ops {
		ja, jerr := applyOp(ctx, jsonCl, op)
		ba, berr := applyOp(ctx, binCl, op)
		if jerr != nil || berr != nil {
			t.Fatalf("op %d (%+v): json err %v, binary err %v", i, op, jerr, berr)
		}
		if ja != ba {
			t.Fatalf("op %d (%+v): acks disagree: json %+v, binary %+v", i, op, ja, ba)
		}
		if !ja.OK || ja.Acked != 1 || ja.Required != 1 {
			t.Fatalf("op %d: standalone daemon ack %+v, want OK acked 1/1", i, ja)
		}
		switch op.kind {
		case 0:
			puts++
		case 1:
			deletes++
		}
	}
	if puts == 0 || deletes == 0 {
		t.Fatalf("workload drew %d puts and %d deletes: differential is vacuous", puts, deletes)
	}

	// Persist everything, then compare the three views of the state.
	for _, cl := range []*client.Client{jsonCl, binCl} {
		if ack, err := cl.Flush(ctx); err != nil || !ack.OK {
			t.Fatalf("final flush: %v (%+v)", err, ack)
		}
	}

	full := []query.Interval{{Lo: 0, Hi: u.N()}}
	jr, err := jsonCl.ScanIntervals(ctx, full)
	if err != nil {
		t.Fatalf("json full scan: %v", err)
	}
	br, err := binCl.ScanIntervals(ctx, full)
	if err != nil {
		t.Fatalf("binary full scan: %v", err)
	}
	if !jr.Complete || !br.Complete {
		t.Fatalf("full scans degraded (json %v, binary %v): transient faults exhausted retries", jr.Complete, br.Complete)
	}
	if err := diffResponses(jr, br); err != nil {
		t.Fatalf("after identical write workloads the daemons disagree: %v", err)
	}

	jd, err := jsonCl.Digest(ctx, full)
	if err != nil {
		t.Fatalf("json digest: %v", err)
	}
	bd, err := binCl.Digest(ctx, full)
	if err != nil {
		t.Fatalf("binary digest: %v", err)
	}
	if jd.Count != bd.Count || jd.Sum != bd.Sum {
		t.Fatalf("digests disagree: json {count %d sum %x}, binary {count %d sum %x}", jd.Count, jd.Sum, bd.Count, bd.Sum)
	}

	// Guard against a vacuous fault schedule: the injectors must have fired.
	var transients uint64
	for _, in := range append(jsonInjs(), binInjs()...) {
		transients += in.Counters().Transients
	}
	if transients == 0 {
		t.Fatal("no transient faults injected: the differential ran against clean devices")
	}

	// Bit-identical durable state: close both daemons and compare the
	// directories byte for byte.
	if err := jsonSvc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := binSvc.Close(); err != nil {
		t.Fatal(err)
	}
	jf, bf := hashDir(t, jsonDir), hashDir(t, binDir)
	if len(jf) == 0 {
		t.Fatal("durable directory is empty after the workload")
	}
	for rel, jb := range jf {
		bb, ok := bf[rel]
		if !ok {
			t.Fatalf("file %s exists only under the JSON daemon", rel)
		}
		if !bytes.Equal(jb, bb) {
			t.Fatalf("file %s differs between the daemons (%d vs %d bytes)", rel, len(jb), len(bb))
		}
	}
	for rel := range bf {
		if _, ok := jf[rel]; !ok {
			t.Fatalf("file %s exists only under the binary daemon", rel)
		}
	}
}
