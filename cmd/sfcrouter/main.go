// Command sfcrouter is the cluster query router: it fronts N sfcserved
// members (each started with -cluster-nodes/-cluster-node so all sides
// derive the same placement plan from -curve/-d/-k/-seed), decomposes each
// box query into curve intervals, clips them to per-node ownership,
// scatter-gathers over the members with per-node deadlines and hedged
// fallback to replicas, and merges the answers in curve order. Member
// failures surface as exact dark intervals in the response — degraded,
// never silently incomplete — and a background prober revives members that
// come back. See docs/CLUSTER.md.
//
// The /query endpoint is wire-compatible with sfcserved's, so existing
// clients (internal/client, cmd/sfcserve -remote) work against a router
// unchanged. /topology reports the live ownership ledger.
//
// With -write-quorum W ≥ 1 the router also fronts the members' durable
// write path: POST /put, /delete and /flush fan each write out to every
// live replica of the owning segment and acknowledge once W members have
// applied it durably; replicas that were dead are recorded as misses and
// reconciled by anti-entropy catch-up before the prober revives them.
// Members must have been started with -data. Without the flag the router
// is read-only, exactly as before.
//
// Scatter legs upgrade to the binary wire protocol per member: with
// -wire auto (the default) the router probes each member's /wireinfo at
// startup and speaks binary (internal/wire) to members that advertise a
// wire listener, JSON to the rest; -wire json pins every leg to JSON. The
// startup banner lists the transport chosen for each member.
//
// Usage:
//
//	sfcrouter -addr 127.0.0.1:7170 \
//	  -nodes http://127.0.0.1:7181,http://127.0.0.1:7182,http://127.0.0.1:7183 \
//	  -replicas 2 -curve hilbert -d 2 -k 6 -seed 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/curve"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

type config struct {
	addr      string
	nodes     string
	replicas  int
	curveName string
	d, k      int
	seed      int64

	nodeTimeout   time.Duration
	hedgeDelay    time.Duration
	probeInterval time.Duration
	maxTimeout    time.Duration
	drainTimeout  time.Duration
	wireMode      string
	writeQuorum   int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7170", "listen address")
	flag.StringVar(&cfg.nodes, "nodes", "", "comma-separated member base URLs, in node-index order (required)")
	flag.IntVar(&cfg.replicas, "replicas", 2, "replication factor R the members were started with")
	flag.StringVar(&cfg.curveName, "curve", "hilbert", fmt.Sprintf("curve name %v", curve.Names()))
	flag.IntVar(&cfg.d, "d", 2, "dimensions")
	flag.IntVar(&cfg.k, "k", 6, "log2 side length (n = 2^(d·k) cells)")
	flag.Int64Var(&cfg.seed, "seed", 1, "placement seed — must match the members'")
	flag.DurationVar(&cfg.nodeTimeout, "node-timeout", 2*time.Second, "per-member request deadline")
	flag.DurationVar(&cfg.hedgeDelay, "hedge-delay", 50*time.Millisecond, "wait before racing the next replica (0 = failover only)")
	flag.DurationVar(&cfg.probeInterval, "probe-interval", time.Second, "how often dead members are probed for revival (0 = never)")
	flag.DurationVar(&cfg.maxTimeout, "max-timeout", server.DefaultMaxTimeout, "cap on the per-request ?timeout parameter")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 30*time.Second, "how long a drain waits for inflight queries")
	flag.StringVar(&cfg.wireMode, "wire", "auto", "scatter-leg transport: auto (binary when a member advertises /wireinfo, JSON otherwise) or json")
	flag.IntVar(&cfg.writeQuorum, "write-quorum", 0, "replicas that must durably apply a write before it is acknowledged (0 = read-only router)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sfcrouter:", err)
		os.Exit(1)
	}
}

// run builds the router, binds the listener, reports the bound address via
// ready (tests listen on :0), and serves until ctx is canceled — then
// drains. A clean drain returns nil.
func run(ctx context.Context, cfg config, ready func(addr string), w io.Writer) error {
	urls := splitNodes(cfg.nodes)
	if len(urls) == 0 {
		return errors.New("-nodes is required (comma-separated member URLs)")
	}
	u, err := grid.New(cfg.d, cfg.k)
	if err != nil {
		return err
	}
	c, err := curve.ByName(cfg.curveName, u, cfg.seed)
	if err != nil {
		return err
	}
	topo, err := cluster.NewTopology(c, len(urls), cfg.replicas)
	if err != nil {
		return err
	}
	if cfg.wireMode != "auto" && cfg.wireMode != "json" {
		return fmt.Errorf("-wire %q: want auto or json", cfg.wireMode)
	}
	nodes := make([]cluster.Node, len(urls))
	transports := make([]string, len(urls))
	for i, nu := range urls {
		// Each member gets its own client, hence its own retry budget; the
		// policy is kept snappy so failover to a replica beats a long local
		// retry dance.
		opts := []client.Option{client.WithRetryPolicy(client.RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: 10 * time.Millisecond,
			MaxBackoff:  50 * time.Millisecond,
		})}
		transports[i] = "json"
		if cfg.wireMode == "auto" {
			// Per-node upgrade with per-node fallback: a member that does
			// not advertise a wire listener (flag unset) is spoken to over
			// JSON; the rest get the binary transport for reads and writes.
			dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			info, found, err := client.New(nu).WireInfo(dctx)
			cancel()
			if err == nil && found && info.Addr != "" {
				opts = append(opts, client.WithTransport(&client.BinaryTransport{Addr: info.Addr}))
				transports[i] = "binary:" + info.Addr
			}
		}
		nodes[i] = cluster.NewClientNode(client.New(nu, opts...))
	}
	reg := metrics.NewRegistry()
	rt, err := cluster.NewRouter(topo, nodes,
		cluster.WithNodeTimeout(cfg.nodeTimeout),
		cluster.WithHedgeDelay(cfg.hedgeDelay),
		cluster.WithWriteQuorum(cfg.writeQuorum),
		cluster.WithRouterMetrics(reg))
	if err != nil {
		return err
	}

	h := &routerHTTP{rt: rt, u: u, reg: reg, maxTimeout: cfg.maxTimeout}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", h.handleQuery)
	mux.HandleFunc("/scan", h.handleScan)
	mux.HandleFunc("/put", h.handlePut)
	mux.HandleFunc("/delete", h.handleDelete)
	mux.HandleFunc("/flush", h.handleFlush)
	mux.HandleFunc("/topology", h.handleTopology)
	mux.HandleFunc("/metrics", h.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/readyz", h.handleReadyz)

	l, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "sfcrouter: routing curve=%s universe=%v nodes=%d replicas=%d write-quorum=%d transports=%s on %s\n",
		c.Name(), u, len(urls), cfg.replicas, cfg.writeQuorum, strings.Join(transports, ","), l.Addr())
	if ready != nil {
		ready(l.Addr().String())
	}

	if cfg.probeInterval > 0 {
		go func() {
			t := time.NewTicker(cfg.probeInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					pctx, cancel := context.WithTimeout(ctx, cfg.probeInterval)
					rt.Probe(pctx)
					cancel()
				}
			}
		}()
	}

	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}

	fmt.Fprintf(w, "sfcrouter: signal received, draining (up to %v)\n", cfg.drainTimeout)
	h.draining.Store(true)
	dctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	fmt.Fprintln(w, "sfcrouter: drained cleanly")
	return nil
}

// splitNodes parses the -nodes flag, dropping empty elements.
func splitNodes(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// routerHTTP is the router daemon's HTTP surface.
type routerHTTP struct {
	rt         *cluster.Router
	u          *grid.Universe
	reg        *metrics.Registry
	maxTimeout time.Duration
	draining   atomic.Bool
}

// handleQuery answers box queries in sfcserved's wire format: decompose on
// the router, scatter across the cluster, merge.
func (h *routerHTTP) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	lo, err := wiretext.ParsePoint(q.Get("lo"), h.u.D())
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	hi, err := wiretext.ParsePoint(q.Get("hi"), h.u.D())
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	b, err := query.NewBox(h.u, lo, hi)
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	h.serve(w, r, func(ctx context.Context) (cluster.Result, error) {
		return h.rt.Query(ctx, b)
	})
}

// handleScan answers raw interval scans, mirroring sfcserved's /scan.
func (h *routerHTTP) handleScan(w http.ResponseWriter, r *http.Request) {
	ivs, err := wiretext.ParseIntervals(r.URL.Query().Get("ivs"))
	if err != nil {
		h.fail(w, http.StatusBadRequest, err)
		return
	}
	h.serve(w, r, func(ctx context.Context) (cluster.Result, error) {
		return h.rt.Scan(ctx, ivs)
	})
}

// serve runs one routed query with the request's deadline applied and
// renders the result in the daemon's wire format (NodesQueried riding in
// the shards_queried field).
func (h *routerHTTP) serve(w http.ResponseWriter, r *http.Request, do func(context.Context) (cluster.Result, error)) {
	if h.draining.Load() {
		h.fail(w, http.StatusServiceUnavailable, errors.New("router draining"))
		return
	}
	ctx := r.Context()
	if t := r.URL.Query().Get("timeout"); t != "" {
		d, err := time.ParseDuration(t)
		if err != nil || d <= 0 {
			h.fail(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q", t))
			return
		}
		if d > h.maxTimeout {
			d = h.maxTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	start := time.Now()
	res, err := do(ctx)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			h.fail(w, http.StatusGatewayTimeout, err)
		case errors.Is(err, context.Canceled):
			h.fail(w, 499, err) // client closed request
		default:
			h.fail(w, http.StatusBadRequest, err)
		}
		return
	}
	out := wiretext.QueryResponse{
		Records:       make([]wiretext.WireRecord, len(res.Records)),
		ShardsQueried: res.NodesQueried,
		PagesRead:     res.PagesRead,
		Complete:      res.Complete(),
		ElapsedUS:     time.Since(start).Microseconds(),
	}
	for i, rec := range res.Records {
		out.Records[i] = wiretext.WireRecord{Point: rec.Point, Payload: rec.Payload}
	}
	if len(res.Unavailable) > 0 {
		out.Unavailable = make([]wiretext.WireInterval, len(res.Unavailable))
		for i, iv := range res.Unavailable {
			out.Unavailable[i] = wiretext.WireInterval{Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// handlePut routes one durable insert through the cluster's write fan-out.
func (h *routerHTTP) handlePut(w http.ResponseWriter, r *http.Request) {
	h.serveWrite(w, r, h.rt.Put)
}

// handleDelete routes one durable delete.
func (h *routerHTTP) handleDelete(w http.ResponseWriter, r *http.Request) {
	h.serveWrite(w, r, h.rt.Delete)
}

// serveWrite runs one routed write in sfcserved's /put wire format, so a
// client pointed at the router instead of a single daemon keeps working;
// the response additionally reports the replica fan-out (acked, required,
// missed).
func (h *routerHTTP) serveWrite(w http.ResponseWriter, r *http.Request, do func(context.Context, store.Record) (cluster.WriteResult, error)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.fail(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if h.draining.Load() {
		h.fail(w, http.StatusServiceUnavailable, errors.New("router draining"))
		return
	}
	var req wiretext.WriteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		h.fail(w, http.StatusBadRequest, fmt.Errorf("body: %w", err))
		return
	}
	res, err := do(r.Context(), store.Record{Point: req.Point, Payload: req.Payload})
	if err != nil {
		h.failWrite(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wiretext.WriteResponse{
		OK: true, Acked: res.Acked, Required: res.Required, Missed: res.Missed,
	})
}

// handleFlush asks every live member to persist its memtables.
func (h *routerHTTP) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		h.fail(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	if h.draining.Load() {
		h.fail(w, http.StatusServiceUnavailable, errors.New("router draining"))
		return
	}
	if err := h.rt.Flush(r.Context()); err != nil {
		h.failWrite(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wiretext.WriteResponse{OK: true})
}

// failWrite maps a routed-write failure onto the daemon's status-code
// contract: 403 read-only, 503 quorum unreachable (retryable — replicas may
// revive), 504 deadline, 400 everything else.
func (h *routerHTTP) failWrite(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, cluster.ErrRouterReadOnly):
		h.fail(w, http.StatusForbidden, err)
	case errors.Is(err, cluster.ErrWriteQuorum):
		w.Header().Set("Retry-After", "1")
		h.fail(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.DeadlineExceeded):
		h.fail(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		h.fail(w, 499, err)
	default:
		h.fail(w, http.StatusBadRequest, err)
	}
}

// topologyResponse is the /topology body: the per-node ownership snapshot
// plus whether the ledger still tiles the curve exactly.
type topologyResponse struct {
	Nodes     []cluster.NodeStatus `json:"nodes"`
	Conserved bool                 `json:"conserved"`
	Error     string               `json:"error,omitempty"`
}

func (h *routerHTTP) handleTopology(w http.ResponseWriter, r *http.Request) {
	resp := topologyResponse{Nodes: h.rt.Snapshot()}
	if err := h.rt.Conserved(); err != nil {
		resp.Error = err.Error()
	} else {
		resp.Conserved = true
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (h *routerHTTP) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, h.reg.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, h.reg.Report())
}

// fail writes the daemon's JSON error shape.
func (h *routerHTTP) fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wiretext.ErrorResponse{Error: err.Error()})
}

// handleReadyz is ready while not draining; a fully dark cluster still
// answers ready (queries degrade to dark intervals rather than failing).
func (h *routerHTTP) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if h.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
}
