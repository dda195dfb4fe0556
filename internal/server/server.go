// Package server is the network boundary of the repository: an HTTP/JSON
// daemon wrapping the sharded query service (internal/service) so that the
// SFC-linearized store can be queried over a socket.
//
// The paper's thesis is that a space filling curve makes proximate
// multidimensional data cheap to serve from a one-dimensional index; this
// package is where that claim becomes operational. The serving concerns
// live here, not in the service layer:
//
//   - Deadline propagation. A request's context — canceled when the client
//     disconnects, expired when its ?timeout elapses — flows into the
//     context-first scan path, so an abandoned query stops within one page
//     fetch.
//   - Admission control. A bounded inflight semaphore plus a queue-wait
//     budget shed excess load with 429 + Retry-After instead of letting
//     latency collapse for everyone; shed, inflight, queueing and latency
//     are recorded in the same metrics registry the service reports into.
//   - Graceful drain. Drain stops accepting work, finishes inflight
//     requests up to a deadline, then closes the service — SIGTERM during
//     traffic loses nothing.
//   - Observability. /metrics (text and JSON), /healthz, /readyz, and
//     optionally the net/http/pprof handlers via internal/profiling.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/profiling"
	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// Config defaults.
const (
	// DefaultQueueWait is the default time a request may wait for an
	// inflight slot before being shed.
	DefaultQueueWait = 100 * time.Millisecond
	// DefaultMaxTimeout caps the per-request ?timeout parameter so a client
	// cannot pin a slot arbitrarily long.
	DefaultMaxTimeout = 30 * time.Second
)

// Server wraps a service.Service behind an HTTP mux. Build one with New,
// expose Handler to a test server, or Serve a listener directly; Drain
// performs the graceful shutdown sequence.
type Server struct {
	svc *service.Service
	reg *metrics.Registry
	lim *limiter

	defaultTimeout time.Duration
	maxTimeout     time.Duration
	retryAfterSec  int

	draining atomic.Bool
	mux      *http.ServeMux
	http     *http.Server

	// Binary wire listener state (wireserver.go). The HTTP and wire front
	// doors share the limiter, drain flag, and metrics above.
	wireMu        sync.Mutex
	wireListeners []net.Listener
	wireConns     map[net.Conn]struct{}
	wireConnWG    sync.WaitGroup // connection read loops
	wireReqWG     sync.WaitGroup // in-flight wire requests
	wireAdvert    atomic.Value   // string: addr published via /wireinfo

	reqTotal    *metrics.Counter
	reqOK       *metrics.Counter
	reqShed     *metrics.Counter
	reqBad      *metrics.Counter
	reqDeadline *metrics.Counter
	reqCanceled *metrics.Counter
	reqErrors   *metrics.Counter
	reqDraining *metrics.Counter
	inflight    *metrics.Counter
	latency     *metrics.Histogram
	queueWaitH  *metrics.Histogram
}

// buildConfig is the resolved New configuration.
type buildConfig struct {
	maxInflight    int
	queueWait      time.Duration
	defaultTimeout time.Duration
	maxTimeout     time.Duration
	pprof          bool
}

// Option configures New.
type Option interface {
	apply(*buildConfig) error
}

type optionFunc func(*buildConfig) error

func (f optionFunc) apply(b *buildConfig) error { return f(b) }

// WithMaxInflight bounds the number of queries executing concurrently
// (default 4×GOMAXPROCS). Requests beyond the bound queue up to the
// queue-wait budget, then shed with 429.
func WithMaxInflight(n int) Option {
	return optionFunc(func(b *buildConfig) error {
		if n < 1 {
			return fmt.Errorf("server: max inflight %d < 1", n)
		}
		b.maxInflight = n
		return nil
	})
}

// WithQueueWait sets the admission queue-wait budget (default
// DefaultQueueWait; 0 sheds immediately when saturated).
func WithQueueWait(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d < 0 {
			return fmt.Errorf("server: negative queue wait %v", d)
		}
		b.queueWait = d
		return nil
	})
}

// WithDefaultTimeout sets the deadline applied to requests that carry no
// ?timeout parameter (default: none — only client disconnect cancels).
func WithDefaultTimeout(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d < 0 {
			return fmt.Errorf("server: negative default timeout %v", d)
		}
		b.defaultTimeout = d
		return nil
	})
}

// WithMaxTimeout caps the per-request ?timeout parameter (default
// DefaultMaxTimeout).
func WithMaxTimeout(d time.Duration) Option {
	return optionFunc(func(b *buildConfig) error {
		if d <= 0 {
			return fmt.Errorf("server: max timeout %v <= 0", d)
		}
		b.maxTimeout = d
		return nil
	})
}

// WithPprof attaches the net/http/pprof handlers under /debug/pprof/.
func WithPprof() Option {
	return optionFunc(func(b *buildConfig) error {
		b.pprof = true
		return nil
	})
}

// New builds a Server over svc. The server records into svc's metrics
// registry, so /metrics exposes the service- and server-side series
// together.
func New(svc *service.Service, opts ...Option) (*Server, error) {
	cfg := buildConfig{
		maxInflight: 4 * runtime.GOMAXPROCS(0),
		queueWait:   DefaultQueueWait,
		maxTimeout:  DefaultMaxTimeout,
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt.apply(&cfg); err != nil {
			return nil, err
		}
	}
	reg := svc.Metrics()
	s := &Server{
		svc:            svc,
		reg:            reg,
		lim:            newLimiter(cfg.maxInflight, cfg.queueWait),
		defaultTimeout: cfg.defaultTimeout,
		maxTimeout:     cfg.maxTimeout,
		retryAfterSec:  retryAfterSeconds(cfg.queueWait),
		mux:            http.NewServeMux(),

		reqTotal:    reg.Counter("server.requests"),
		reqOK:       reg.Counter("server.ok"),
		reqShed:     reg.Counter("server.shed"),
		reqBad:      reg.Counter("server.bad_request"),
		reqDeadline: reg.Counter("server.deadline_exceeded"),
		reqCanceled: reg.Counter("server.canceled"),
		reqErrors:   reg.Counter("server.errors"),
		reqDraining: reg.Counter("server.draining_rejected"),
		inflight:    reg.Counter("server.inflight"),
		latency:     reg.Histogram("server.latency_us"),
		queueWaitH:  reg.Histogram("server.queue_wait_us"),
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/scan", s.handleScan)
	s.mux.HandleFunc("/put", s.handleWrite((*service.Service).Put))
	s.mux.HandleFunc("/delete", s.handleWrite((*service.Service).Delete))
	s.mux.HandleFunc("/flush", s.handleFlush)
	s.mux.HandleFunc("/digest", s.handleDigest)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/wireinfo", s.handleWireInfo)
	if cfg.pprof {
		profiling.AttachPprof(s.mux)
	}
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// retryAfterSeconds renders the queue-wait budget as a whole-second
// Retry-After hint (minimum 1 — the header has no sub-second form).
func retryAfterSeconds(queueWait time.Duration) int {
	sec := int((queueWait + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// Handler returns the server's mux — the hook httptest-based tests serve.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Drain (or Close) is called. A clean
// drain returns nil.
func (s *Server) Serve(l net.Listener) error {
	err := s.http.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Drain performs the graceful shutdown sequence across both front doors:
// flip /readyz to 503 and reject new queries (load balancers steer away),
// stop accepting HTTP and wire connections, wait for inflight requests up
// to ctx's deadline, then close the underlying service. If ctx expires
// first, remaining connections are force-closed and the context's error is
// returned — inflight queries at that point die with the socket.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.wireMu.Lock()
	for _, l := range s.wireListeners {
		l.Close()
	}
	s.wireMu.Unlock()
	err := s.http.Shutdown(ctx)
	if err != nil {
		// Deadline hit with requests still inflight: force the sockets.
		s.http.Close()
	}
	// Wait out in-flight wire requests; their trailers are the commit
	// point pipelined clients depend on.
	done := make(chan struct{})
	go func() {
		s.wireReqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	// Idle (or stuck, if ctx expired) wire connections block in ReadFrame;
	// closing the sockets releases their read loops.
	s.wireMu.Lock()
	for c := range s.wireConns {
		c.Close()
	}
	s.wireMu.Unlock()
	s.wireConnWG.Wait()
	if cerr := s.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleQuery answers GET /query?lo=x1,…,xd&hi=y1,…,yd[&timeout=250ms].
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Inc()
	if s.draining.Load() {
		s.reqDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", true)
		return
	}
	box, timeout, err := s.parseQuery(r)
	if err != nil {
		s.reqBad.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	waited, err := s.lim.acquire(ctx)
	s.queueWaitH.Observe(waited.Microseconds())
	if err != nil {
		switch {
		case errors.Is(err, errShed):
			s.reqShed.Inc()
			s.writeError(w, http.StatusTooManyRequests, "overloaded: inflight limit reached within the queue-wait budget", true)
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission", false)
		default: // client went away while queued; nobody is listening
			s.reqCanceled.Inc()
		}
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.lim.release()
	}()

	start := time.Now()
	res, err := s.svc.Range(ctx, box)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded mid-scan", false)
		case errors.Is(err, context.Canceled):
			s.reqCanceled.Inc() // client disconnected; response goes nowhere
		case errors.Is(err, service.ErrShuttingDown):
			s.reqDraining.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "shutting down", true)
		default:
			s.reqErrors.Inc()
			s.writeError(w, http.StatusInternalServerError, err.Error(), false)
		}
		return
	}
	s.latency.Observe(elapsed.Microseconds())
	s.reqOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toResponse(res, elapsed.Microseconds()))
}

// handleScan answers GET /scan?ivs=lo-hi,lo-hi,…[&timeout=250ms]: a raw
// curve-interval scan, the endpoint the cluster router fans box queries out
// through. Intervals must be non-empty, in-range, sorted, and disjoint —
// exactly the clipped decomposition the router produces — and the response
// shape is identical to /query, dark intervals included.
func (s *Server) handleScan(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Inc()
	if s.draining.Load() {
		s.reqDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", true)
		return
	}
	q := r.URL.Query()
	ivs, err := wiretext.ParseIntervals(q.Get("ivs"))
	if err != nil {
		s.reqBad.Inc()
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("ivs: %v", err), false)
		return
	}
	timeout, err := s.parseTimeout(q.Get("timeout"))
	if err != nil {
		s.reqBad.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	waited, err := s.lim.acquire(ctx)
	s.queueWaitH.Observe(waited.Microseconds())
	if err != nil {
		switch {
		case errors.Is(err, errShed):
			s.reqShed.Inc()
			s.writeError(w, http.StatusTooManyRequests, "overloaded: inflight limit reached within the queue-wait budget", true)
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission", false)
		default: // client went away while queued; nobody is listening
			s.reqCanceled.Inc()
		}
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.lim.release()
	}()

	start := time.Now()
	res, err := s.svc.Scan(ctx, ivs)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded mid-scan", false)
		case errors.Is(err, context.Canceled):
			s.reqCanceled.Inc() // client disconnected; response goes nowhere
		case errors.Is(err, service.ErrShuttingDown):
			s.reqDraining.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "shutting down", true)
		default:
			s.reqBad.Inc()
			s.writeError(w, http.StatusBadRequest, err.Error(), false)
		}
		return
	}
	s.latency.Observe(elapsed.Microseconds())
	s.reqOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toResponse(res, elapsed.Microseconds()))
}

// handleWrite builds the POST /put and /delete handlers: decode one record,
// route it through the service's durable write path, acknowledge only after
// the owning shard's WAL has synced it. On a read-only (in-memory) service
// the endpoints answer 403.
func (s *Server) handleWrite(op func(*service.Service, context.Context, store.Record, ...service.WriteOption) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.reqTotal.Inc()
		if r.Method != http.MethodPost {
			s.reqBad.Inc()
			w.Header().Set("Allow", http.MethodPost)
			s.writeError(w, http.StatusMethodNotAllowed, "POST only", false)
			return
		}
		if s.draining.Load() {
			s.reqDraining.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "draining", true)
			return
		}
		var req wiretext.WriteRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			s.reqBad.Inc()
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("body: %v", err), false)
			return
		}
		if err := op(s.svc, r.Context(), store.Record{Point: req.Point, Payload: req.Payload}); err != nil {
			s.writeWriteError(w, err)
			return
		}
		s.reqOK.Inc()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(wiretext.WriteResponse{OK: true, Acked: 1, Required: 1})
	}
}

// handleDigest answers GET /digest?ivs=lo-hi,…[&timeout=250ms]: an
// order-independent (count, checksum) summary of the records held in the
// given curve intervals, the primitive anti-entropy compares across
// replicas. A range the node cannot fully read answers 503 — a digest over
// dark pages would report divergence that is really unavailability.
func (s *Server) handleDigest(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Inc()
	if s.draining.Load() {
		s.reqDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", true)
		return
	}
	q := r.URL.Query()
	ivs, err := wiretext.ParseIntervals(q.Get("ivs"))
	if err != nil {
		s.reqBad.Inc()
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("ivs: %v", err), false)
		return
	}
	timeout, err := s.parseTimeout(q.Get("timeout"))
	if err != nil {
		s.reqBad.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), false)
		return
	}
	ctx := r.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	waited, err := s.lim.acquire(ctx)
	s.queueWaitH.Observe(waited.Microseconds())
	if err != nil {
		switch {
		case errors.Is(err, errShed):
			s.reqShed.Inc()
			s.writeError(w, http.StatusTooManyRequests, "overloaded: inflight limit reached within the queue-wait budget", true)
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded while queued for admission", false)
		default: // client went away while queued; nobody is listening
			s.reqCanceled.Inc()
		}
		return
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		s.lim.release()
	}()

	start := time.Now()
	d, err := s.svc.Digest(ctx, ivs)
	elapsed := time.Since(start)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded mid-digest", false)
		case errors.Is(err, context.Canceled):
			s.reqCanceled.Inc() // client disconnected; response goes nowhere
		case errors.Is(err, service.ErrShuttingDown):
			s.reqDraining.Inc()
			s.writeError(w, http.StatusServiceUnavailable, "shutting down", true)
		case errors.Is(err, service.ErrDigestUnavailable):
			s.reqErrors.Inc()
			s.writeError(w, http.StatusServiceUnavailable, err.Error(), true)
		default:
			s.reqBad.Inc()
			s.writeError(w, http.StatusBadRequest, err.Error(), false)
		}
		return
	}
	s.latency.Observe(elapsed.Microseconds())
	s.reqOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(toDigestResponse(d, elapsed.Microseconds()))
}

// handleFlush answers POST /flush: persist every shard's memtable into an
// on-disk run.
func (s *Server) handleFlush(w http.ResponseWriter, r *http.Request) {
	s.reqTotal.Inc()
	if r.Method != http.MethodPost {
		s.reqBad.Inc()
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, "POST only", false)
		return
	}
	if s.draining.Load() {
		s.reqDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "draining", true)
		return
	}
	if err := s.svc.Flush(r.Context()); err != nil {
		s.writeWriteError(w, err)
		return
	}
	s.reqOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wiretext.WriteResponse{OK: true, Acked: 1, Required: 1})
}

// writeWriteError maps a write-path failure to its status code.
func (s *Server) writeWriteError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, service.ErrReadOnly):
		s.reqBad.Inc()
		s.writeError(w, http.StatusForbidden, "read-only: the daemon was started without -data", false)
	case errors.Is(err, service.ErrShuttingDown), errors.Is(err, store.ErrClosed):
		s.reqDraining.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "shutting down", true)
	case errors.Is(err, context.DeadlineExceeded):
		s.reqDeadline.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "deadline exceeded", false)
	case errors.Is(err, context.Canceled):
		s.reqCanceled.Inc() // client disconnected; response goes nowhere
	default:
		s.reqErrors.Inc()
		s.writeError(w, http.StatusBadRequest, err.Error(), false)
	}
}

// parseQuery extracts the box corners and the effective per-request
// timeout.
func (s *Server) parseQuery(r *http.Request) (query.Box, time.Duration, error) {
	q := r.URL.Query()
	u := s.svc.Curve().Universe()
	lo, err := wiretext.ParsePoint(q.Get("lo"), u.D())
	if err != nil {
		return query.Box{}, 0, fmt.Errorf("lo: %w", err)
	}
	hi, err := wiretext.ParsePoint(q.Get("hi"), u.D())
	if err != nil {
		return query.Box{}, 0, fmt.Errorf("hi: %w", err)
	}
	box, err := query.NewBox(u, lo, hi)
	if err != nil {
		return query.Box{}, 0, err
	}
	timeout, err := s.parseTimeout(q.Get("timeout"))
	if err != nil {
		return query.Box{}, 0, err
	}
	return box, timeout, nil
}

// parseTimeout resolves the ?timeout parameter against the default and the
// cap.
func (s *Server) parseTimeout(t string) (time.Duration, error) {
	if t == "" {
		return s.clampTimeout(0), nil
	}
	d, err := time.ParseDuration(t)
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("timeout: bad duration %q", t)
	}
	return s.clampTimeout(d), nil
}

// clampTimeout resolves a requested deadline against the default and the
// cap — the one deadline policy both the HTTP and wire front doors apply.
// Zero means "no deadline requested" and takes the server default.
func (s *Server) clampTimeout(d time.Duration) time.Duration {
	if d <= 0 {
		d = s.defaultTimeout
	}
	if s.maxTimeout > 0 && d > s.maxTimeout {
		d = s.maxTimeout
	}
	return d
}

// writeError sends the JSON error body; retryable responses carry a
// Retry-After hint so well-behaved clients back off instead of hammering.
func (s *Server) writeError(w http.ResponseWriter, code int, msg string, retryable bool) {
	w.Header().Set("Content-Type", "application/json")
	if retryable {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSec))
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(wiretext.ErrorResponse{Error: msg})
}

// handleMetrics serves the registry: aligned text by default,
// ?format=json (or Accept: application/json) for the machine-readable
// form with globally sorted keys.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, s.reg.JSON())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.reg.Report())
}

// handleHealthz reports process liveness: 200 as long as the daemon runs,
// draining included.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness to take traffic: 503 once draining so load
// balancers stop routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}
