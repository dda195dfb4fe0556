package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/query"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// scanReturned wraps a member handle and signals once each Scan call has
// returned — including a hedged loser's, which the router does not wait
// for — so a test can read the member's client stats after the call's
// retry loop has settled.
type scanReturned struct {
	*ClientNode
	done chan struct{}
}

func (n scanReturned) Scan(ctx context.Context, ivs []query.Interval, timeout time.Duration) (store.ScanResult, error) {
	defer func() { n.done <- struct{}{} }()
	return n.ClientNode.Scan(ctx, ivs, timeout)
}

// budgetCluster puts two httptest members, each behind a ClientNode with
// its own client and a retry budget of 3 attempts, into a fully replicated
// two-node router. primary serves node 0's /scan; node 1 answers every
// scan at once with an empty result.
func budgetCluster(t *testing.T, primary http.HandlerFunc, hedgeDelay time.Duration) (*Router, [2]*client.Client, chan struct{}) {
	t.Helper()
	empty := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wiretext.QueryResponse{Complete: true})
	}
	var cls [2]*client.Client
	var nodes [2]Node
	// Buffered past the one Scan each test expects of node 0, so an
	// unexpected extra call shows up as a failed assertion, not a hang.
	done := make(chan struct{}, 8)
	for i, h := range []http.HandlerFunc{primary, empty} {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		cls[i] = client.New(srv.URL, client.WithRetryPolicy(client.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond}))
		t.Cleanup(func() { cls[i].Close() })
		nodes[i] = NewClientNode(cls[i])
	}
	nodes[0] = scanReturned{ClientNode: nodes[0].(*ClientNode), done: done}
	topo, err := NewTopology(testCurve(t, 3), 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(topo, nodes[:], WithHedgeDelay(hedgeDelay), WithNodeTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	return rt, cls, done
}

// lowerSegment is the curve segment node 0 is primary for: a scan of it
// is one leg, asked of node 0 first and of node 1 only on a hedge or a
// failover.
func lowerSegment(rt *Router) []query.Interval {
	lo, hi := rt.Topology().Segment(0)
	return []query.Interval{{Lo: lo, Hi: hi}}
}

// awaitScan waits for node 0's Scan call to return.
func awaitScan(t *testing.T, done chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("node 0's scan never returned")
	}
}

// TestRouterHedgeDoesNotChargePrimaryBudget is the retry-accounting rule
// of the router's hedge race: a primary slower than the hedge delay loses
// the race to its replica, and the canceled loser is charged no retry —
// its client shows one attempt and zero retries once its call returns, so
// the primary keeps its whole budget for the next query.
func TestRouterHedgeDoesNotChargePrimaryBudget(t *testing.T) {
	slow := func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done(): // the router reaped the hedge loser
		case <-time.After(10 * time.Second):
		}
	}
	rt, cls, done := budgetCluster(t, slow, 5*time.Millisecond)
	res, err := rt.Scan(context.Background(), lowerSegment(rt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hedges == 0 || len(res.Unavailable) != 0 {
		t.Fatalf("hedges %d, dark %v: want a hedge and a complete answer", res.Hedges, res.Unavailable)
	}
	awaitScan(t, done)
	if ps := cls[0].Stats(); ps.Attempts != 1 || ps.Retries != 0 {
		t.Fatalf("primary attempts/retries = %d/%d, want 1/0 — a canceled hedge loser must not be retried or charged", ps.Attempts, ps.Retries)
	}
	if rs := cls[1].Stats(); rs.Attempts != 1 || rs.Retries != 0 {
		t.Fatalf("replica attempts/retries = %d/%d, want 1/0", rs.Attempts, rs.Retries)
	}
	if !rt.Alive(0) {
		t.Fatal("the slow but healthy primary was marked dead")
	}
}

// TestRouterFailoverKeepsBudgetsSeparate: a primary that fails outright
// (terminal 500) fails over to its replica at once. The primary spends one
// attempt of its own budget, and the replica's answer costs the replica
// no retry: the two budgets never mix.
func TestRouterFailoverKeepsBudgetsSeparate(t *testing.T) {
	fail := func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}
	rt, cls, done := budgetCluster(t, fail, 0)
	res, err := rt.Scan(context.Background(), lowerSegment(rt))
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 || len(res.Unavailable) != 0 {
		t.Fatalf("failovers %d, dark %v: want a failover and a complete answer", res.Failovers, res.Unavailable)
	}
	awaitScan(t, done)
	if ps := cls[0].Stats(); ps.Attempts != 1 || ps.Retries != 0 {
		t.Fatalf("primary attempts/retries = %d/%d, want 1/0", ps.Attempts, ps.Retries)
	}
	if rs := cls[1].Stats(); rs.Attempts != 1 || rs.Retries != 0 {
		t.Fatalf("replica attempts/retries = %d/%d, want 1/0", rs.Attempts, rs.Retries)
	}
}
