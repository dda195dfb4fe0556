package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// slowDevice delays every page read, turning the simulated store into one
// with real I/O latency so deadline and admission behavior is observable.
type slowDevice struct {
	inner store.PageDevice
	delay time.Duration
}

func (d slowDevice) ReadPage(id int) (store.Page, error) {
	time.Sleep(d.delay)
	return d.inner.ReadPage(id)
}

func (d slowDevice) NumPages() int { return d.inner.NumPages() }

// newTestService builds a 2-shard service over 64×64 cells / 20k records
// with pageSize 8; delay > 0 makes every leaf read cost that long.
func newTestService(t *testing.T, delay time.Duration, extra ...service.Option) *service.Service {
	t.Helper()
	u := grid.MustNew(2, 6)
	c := curve.NewHilbert(u)
	rng := rand.New(rand.NewSource(11))
	recs := make([]store.Record, 20_000)
	for i := range recs {
		recs[i] = store.Record{
			Point:   u.MustPoint(rng.Uint32()%u.Side(), rng.Uint32()%u.Side()),
			Payload: uint64(i),
		}
	}
	opts := []service.Option{service.WithShards(2), service.WithPageSize(8)}
	if delay > 0 {
		opts = append(opts, service.WithShardStoreOptions(func(int) []store.Option {
			return []store.Option{store.WithDeviceWrapper(func(d store.PageDevice) (store.PageDevice, error) {
				return slowDevice{inner: d, delay: delay}, nil
			})}
		}))
	}
	svc, err := service.New(c, recs, append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	return svc
}

func queryURL(base string, lo, hi string, extra string) string {
	return fmt.Sprintf("%s/query?lo=%s&hi=%s%s", base, lo, hi, extra)
}

// TestQueryEndToEnd: a plain query returns the same records the service
// returns in-process, in the same order.
func TestQueryEndToEnd(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(8, 8), u.MustPoint(23, 23))
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.Range(context.Background(), box)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(queryURL(ts.URL, "8,8", "23,23", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var got wiretext.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("got %d records over the wire, want %d", len(got.Records), len(want.Records))
	}
	for i, r := range got.Records {
		if r.Payload != want.Records[i].Payload {
			t.Fatalf("record %d: payload %d, want %d", i, r.Payload, want.Records[i].Payload)
		}
	}
	if !got.Complete || got.ShardsQueried < 1 {
		t.Fatalf("response meta: %+v", got)
	}

	// Malformed boxes are 400s, not 500s.
	for _, bad := range []string{
		queryURL(ts.URL, "8", "23,23", ""), // wrong dimension count
		queryURL(ts.URL, "8,8", "7,7", ""), // inverted
		queryURL(ts.URL, "8,8", "23,23", "&timeout=banana"),
		ts.URL + "/query?hi=23,23", // missing lo
	} {
		resp, err := http.Get(bad)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDeadlinePropagation: a request-supplied timeout becomes the scan's
// deadline — the query stops mid-scan with 504 long before the unbounded
// scan would finish, and the deadline counter records it.
func TestDeadlinePropagation(t *testing.T) {
	svc := newTestService(t, 3*time.Millisecond)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The full universe touches ~2500 pages × 3ms ≈ 7.5s sequentially per
	// shard; a 50ms budget must cut it off three orders earlier.
	start := time.Now()
	resp, err := http.Get(queryURL(ts.URL, "0,0", "63,63", "&timeout=50ms"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("timed-out query took %v — deadline did not propagate into the scan", elapsed)
	}
	if got := svc.Metrics().Counter("server.deadline_exceeded").Value(); got == 0 {
		t.Fatal("server.deadline_exceeded not incremented")
	}
}

// TestClientDisconnectCancelsScan: closing the client connection cancels
// the request context, which cancels the scan; the canceled counter
// records it and the inflight slot frees.
func TestClientDisconnectCancelsScan(t *testing.T) {
	svc := newTestService(t, 3*time.Millisecond)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, queryURL(ts.URL, "0,0", "63,63", ""), nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the scan start
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client got %v, want context.Canceled", err)
	}
	reg := svc.Metrics()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("server.canceled").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("server.canceled never incremented after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for reg.Counter("server.inflight").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d after disconnect", reg.Counter("server.inflight").Value())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSheddingUnderSaturation is the acceptance scenario: a burst well
// beyond the inflight bound sheds with 429 + Retry-After (shed counter
// > 0) while the requests that are served keep bounded latency — each
// started within the queue-wait budget of a slot freeing, so end-to-end
// time stays within a small multiple of one unloaded query, instead of
// growing with the whole queue.
func TestSheddingUnderSaturation(t *testing.T) {
	svc := newTestService(t, 2*time.Millisecond)
	srv, err := server.New(svc,
		server.WithMaxInflight(2),
		server.WithQueueWait(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Baseline: one unloaded query.
	lo, hi := "16,16", "39,39"
	start := time.Now()
	resp, err := http.Get(queryURL(ts.URL, lo, hi, ""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline status %d", resp.StatusCode)
	}
	baseline := time.Since(start)

	const burst = 16
	var wg sync.WaitGroup
	type outcome struct {
		status     int
		elapsed    time.Duration
		retryAfter string
	}
	outcomes := make([]outcome, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			resp, err := http.Get(queryURL(ts.URL, lo, hi, ""))
			if err != nil {
				outcomes[i] = outcome{status: -1}
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			outcomes[i] = outcome{
				status:     resp.StatusCode,
				elapsed:    time.Since(start),
				retryAfter: resp.Header.Get("Retry-After"),
			}
		}(i)
	}
	wg.Wait()

	served, shed := 0, 0
	var worstServed time.Duration
	for _, o := range outcomes {
		switch o.status {
		case http.StatusOK:
			served++
			if o.elapsed > worstServed {
				worstServed = o.elapsed
			}
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter == "" {
				t.Error("429 without Retry-After")
			}
		default:
			t.Errorf("unexpected status %d under saturation", o.status)
		}
	}
	if shed == 0 {
		t.Fatalf("saturating burst of %d over inflight limit 2 shed nothing (served %d)", burst, served)
	}
	if served == 0 {
		t.Fatal("saturating burst served nothing — shedding collapsed into total refusal")
	}
	if got := svc.Metrics().Counter("server.shed").Value(); got != int64(shed) {
		t.Fatalf("server.shed = %d, observed %d 429s", got, shed)
	}
	// Bounded tail: a served request waits at most one queue-wait budget
	// beyond the work itself (2 inflight ahead of it at most). 4× the
	// unloaded baseline plus slack is a generous ceiling that queue-length
	// proportional latency (14 × baseline here) would blow through.
	bound := 4*baseline + 500*time.Millisecond
	if worstServed > bound {
		t.Fatalf("worst served latency %v exceeds bound %v (baseline %v) — shedding is not protecting the served tail",
			worstServed, bound, baseline)
	}
	if v := svc.Metrics().Histogram("server.latency_us").Quantile(0.99); v == 0 {
		t.Fatal("server.latency_us histogram never observed")
	}
}

// TestDrainFinishesInflight: SIGTERM semantics — during drain the inflight
// request completes with its full body, new connections are refused, and
// the service is closed afterwards.
func TestDrainFinishesInflight(t *testing.T) {
	svc := newTestService(t, 2*time.Millisecond)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	type result struct {
		status  int
		records int
		err     error
	}
	slow := make(chan result, 1)
	go func() {
		resp, err := http.Get(queryURL(base, "0,0", "47,47", ""))
		if err != nil {
			slow <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var qr wiretext.QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			slow <- result{status: resp.StatusCode, err: err}
			return
		}
		slow <- result{status: resp.StatusCode, records: len(qr.Records)}
	}()
	time.Sleep(50 * time.Millisecond) // request is inflight

	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after drain", err)
	}

	r := <-slow
	if r.err != nil || r.status != http.StatusOK {
		t.Fatalf("inflight request during drain: status %d, err %v — drain must finish inflight work", r.status, r.err)
	}
	if r.records == 0 {
		t.Fatal("inflight request returned an empty body")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
	u := svc.Curve().Universe()
	box, err := query.NewBox(u, u.MustPoint(0, 0), u.MustPoint(3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Range(context.Background(), box); !errors.Is(err, service.ErrShuttingDown) {
		t.Fatalf("service not closed after drain: %v", err)
	}
	if !srv.Draining() {
		t.Fatal("Draining() false after drain")
	}
}

// TestDrainRejectsNewQueries: once draining, /readyz flips to 503 and new
// queries bounce with 503 + Retry-After while /healthz stays 200.
func TestDrainRejectsNewQueries(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s before drain: %d, want %d", path, resp.StatusCode, want)
		}
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The httptest server has its own listener, so the mux is still
	// reachable — exactly the keep-alive-connection case drain must handle
	// at the handler level.
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 503} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s during drain: %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := http.Get(queryURL(ts.URL, "8,8", "9,9", ""))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 during drain without Retry-After")
	}
}

// TestMetricsEndpoint: text and JSON forms both serve, and the JSON form
// is valid with the server series present.
func TestMetricsEndpoint(t *testing.T) {
	svc := newTestService(t, 0)
	srv, err := server.New(svc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, err := http.Get(queryURL(ts.URL, "4,4", "11,11", "")); err != nil {
		t.Fatal(err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/metrics JSON invalid: %v\n%s", err, body)
	}
	for _, key := range []string{"server.requests", "server.ok", "server.latency_us", "queries.total"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("/metrics JSON missing %q", key)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "server.requests") {
		t.Fatalf("/metrics text missing server.requests:\n%s", text)
	}
}
