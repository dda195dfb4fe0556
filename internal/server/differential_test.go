package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/client"
	"repro/internal/faultio"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// newFaultedDifferentialServer builds a service with deterministically lost
// pages (faultio LostFrac only: a lost page fails every read, as a pure
// function of the seed — so two scans of the same intervals degrade
// identically however they arrive), serves it over both front doors, and
// returns a JSON client and a binary client against the same daemon.
func newFaultedDifferentialServer(t *testing.T, seed int64, lostFrac float64) (jsonCl, binCl *client.Client) {
	t.Helper()
	svc := newTestService(t, 0, service.WithShardStoreOptions(func(j int) []store.Option {
		return []store.Option{store.WithDeviceWrapper(func(d store.PageDevice) (store.PageDevice, error) {
			return faultio.Wrap(d, faultio.Config{
				Seed:     seed + int64(j)*1009,
				LostFrac: lostFrac,
			})
		})}
	}))
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
	return jsonCl, binCl
}

// randomIntervals draws a sorted, disjoint interval set over [0, n) from
// rng: random curve indices, sorted and deduplicated, paired off.
func randomIntervals(rng *rand.Rand, n uint64, count int) []query.Interval {
	cuts := make([]uint64, 0, 2*count)
	for len(cuts) < 2*count {
		cuts = append(cuts, rng.Uint64()%n)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	ivs := make([]query.Interval, 0, count)
	for i := 0; i+1 < len(cuts); i += 2 {
		lo, hi := cuts[i], cuts[i+1]+1
		if len(ivs) > 0 && lo < ivs[len(ivs)-1].Hi {
			continue // overlaps the previous pair after dedup-by-sort; drop
		}
		ivs = append(ivs, query.Interval{Lo: lo, Hi: hi})
	}
	return ivs
}

// diffResponses fails unless the two responses are identical: record
// sequence, dark intervals, pages read, shards queried, and the complete
// flag. ElapsedUS is the one field allowed to differ — it measures the
// server, not the answer.
func diffResponses(a, b wiretext.QueryResponse) error {
	if len(a.Records) != len(b.Records) {
		return fmt.Errorf("record count %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if a.Records[i].Payload != b.Records[i].Payload || len(a.Records[i].Point) != len(b.Records[i].Point) {
			return fmt.Errorf("record %d: %v/%d vs %v/%d", i, a.Records[i].Point, a.Records[i].Payload, b.Records[i].Point, b.Records[i].Payload)
		}
		for d := range a.Records[i].Point {
			if a.Records[i].Point[d] != b.Records[i].Point[d] {
				return fmt.Errorf("record %d coord %d: %d vs %d", i, d, a.Records[i].Point[d], b.Records[i].Point[d])
			}
		}
	}
	if len(a.Unavailable) != len(b.Unavailable) {
		return fmt.Errorf("dark interval count %d vs %d", len(a.Unavailable), len(b.Unavailable))
	}
	for i := range a.Unavailable {
		if a.Unavailable[i] != b.Unavailable[i] {
			return fmt.Errorf("dark interval %d: %+v vs %+v", i, a.Unavailable[i], b.Unavailable[i])
		}
	}
	if a.PagesRead != b.PagesRead {
		return fmt.Errorf("pages read %d vs %d", a.PagesRead, b.PagesRead)
	}
	if a.ShardsQueried != b.ShardsQueried {
		return fmt.Errorf("shards queried %d vs %d", a.ShardsQueried, b.ShardsQueried)
	}
	if a.Complete != b.Complete {
		return fmt.Errorf("complete %v vs %v", a.Complete, b.Complete)
	}
	return nil
}

// TestTransportDifferentialUnderFaults: the binary transport is an
// encoding, not a different database — for random interval scans and box
// queries against a daemon with deterministically lost pages, the JSON and
// binary answers are identical record for record, including the degraded
// parts (dark intervals, pages read). Concurrent workers keep several
// streams pipelined on the shared connections while comparing, so -race
// sweeps the demultiplexer as well.
func TestTransportDifferentialUnderFaults(t *testing.T) {
	jsonCl, binCl := newFaultedDifferentialServer(t, 42, 0.05)

	const workers = 4
	const scansPerWorker = 12
	n := uint64(64 * 64)
	var degraded atomic.Int64 // guards against a vacuous pass: some scans must hit lost pages
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + int64(w)))
			for i := 0; i < scansPerWorker; i++ {
				ivs := randomIntervals(rng, n, 1+rng.Intn(8))
				jr, err := jsonCl.ScanIntervals(context.Background(), ivs)
				if err != nil {
					errs <- fmt.Errorf("worker %d scan %d json: %w", w, i, err)
					return
				}
				br, err := binCl.ScanIntervals(context.Background(), ivs)
				if err != nil {
					errs <- fmt.Errorf("worker %d scan %d binary: %w", w, i, err)
					return
				}
				if err := diffResponses(jr, br); err != nil {
					errs <- fmt.Errorf("worker %d scan %d (ivs %v): transports disagree: %w", w, i, ivs, err)
					return
				}
				if !jr.Complete {
					degraded.Add(1)
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if degraded.Load() == 0 {
		t.Fatal("no scan was degraded: the fault schedule never fired, the differential is vacuous")
	}
}

// TestTransportDifferentialStreaming: the streaming variant of the binary
// scan concatenates to exactly the JSON buffered response under the same
// fault schedule — chunking is invisible in the answer.
func TestTransportDifferentialStreaming(t *testing.T) {
	jsonCl, binCl := newFaultedDifferentialServer(t, 7, 0.08)
	rng := rand.New(rand.NewSource(2024))
	n := uint64(64 * 64)
	for i := 0; i < 8; i++ {
		ivs := randomIntervals(rng, n, 1+rng.Intn(5))
		jr, err := jsonCl.ScanIntervals(context.Background(), ivs)
		if err != nil {
			t.Fatalf("scan %d json: %v", i, err)
		}
		st, err := binCl.ScanStream(context.Background(), ivs)
		if err != nil {
			t.Fatalf("scan %d binary stream: %v", i, err)
		}
		br, err := st.Collect()
		if err != nil {
			t.Fatalf("scan %d binary collect: %v", i, err)
		}
		if err := diffResponses(jr, br); err != nil {
			t.Fatalf("scan %d (ivs %v): stream vs JSON disagree: %v", i, ivs, err)
		}
	}
}
