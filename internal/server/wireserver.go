package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/wire"
	wiretext "repro/internal/wire/text"
)

// ServeWire accepts binary-protocol connections (internal/wire) on l until
// Drain. The wire listener is a second front door to the same service:
// every request passes the same admission control, deadline clamps, drain
// lifecycle, and metrics as the HTTP mux — only the encoding differs.
// Requests pipeline per connection: each request frame is handled in its
// own goroutine and responses interleave by request id.
func (s *Server) ServeWire(l net.Listener) error {
	s.wireMu.Lock()
	if s.wireListeners == nil {
		s.wireConns = make(map[net.Conn]struct{})
	}
	s.wireListeners = append(s.wireListeners, l)
	s.wireMu.Unlock()
	for {
		c, err := l.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		s.wireMu.Lock()
		s.wireConns[c] = struct{}{}
		s.wireMu.Unlock()
		s.wireConnWG.Add(1)
		go func() {
			defer s.wireConnWG.Done()
			s.serveWireConn(c)
			s.wireMu.Lock()
			delete(s.wireConns, c)
			s.wireMu.Unlock()
		}()
	}
}

// AdvertiseWire publishes addr through GET /wireinfo so JSON clients (and
// the cluster router) can discover the binary listener and upgrade.
func (s *Server) AdvertiseWire(addr string) { s.wireAdvert.Store(addr) }

// handleWireInfo answers GET /wireinfo: the advertised binary listener,
// or 404 when the daemon does not serve the binary protocol. Compress
// advertises per-frame deflate support; clients opt in per request. Write
// reports whether TPut/TDelete/TFlush frames are applied — only on durable
// daemons; elsewhere they are answered with CodeReadOnly, the binary twin
// of the JSON endpoints' 403. The frames share the reads' flags-byte
// contract: unknown request flag bits are hard-rejected as corrupt, never
// ignored.
func (s *Server) handleWireInfo(w http.ResponseWriter, r *http.Request) {
	addr, _ := s.wireAdvert.Load().(string)
	if addr == "" {
		s.writeError(w, http.StatusNotFound, "binary protocol not served", false)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(wiretext.WireInfo{Addr: addr, Compress: true, Write: s.svc.DurableMode()})
}

// wireWriter serializes whole-frame writes to one connection, so frames
// from pipelined handler goroutines never interleave mid-frame. One
// conn.Write per frame: the frame is the flush unit.
type wireWriter struct {
	mu  sync.Mutex
	c   net.Conn
	buf []byte
}

func (w *wireWriter) write(f wire.Frame) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = wire.AppendFrame(w.buf[:0], f)
	_, err := w.c.Write(w.buf)
	return err
}

// segmentBytes bounds how much of a response one conn.Write carries. Small
// results — the common case — go out as one write (batches plus trailer,
// one syscall); large scans flush in segments, releasing the writer between
// them so pipelined responses and pings still interleave.
const segmentBytes = 1 << 18

// wireStreamEnc encodes one request's response frames into a private
// per-request buffer, flushing with a single locked conn.Write whenever a
// segment fills. The buffer never grows past one segment plus one frame, so
// per-request server-side buffering is bounded by segmentBytes plus the
// largest batch — not by the result size, however large the scan. ioFailed
// distinguishes a dead connection (give up silently; the read loop notices
// too) from an encoding failure (send TError).
type wireStreamEnc struct {
	w        *wireWriter
	id       uint64
	compress bool
	buf      []byte
	scratch  []byte // payload staging when compressing
	ioFailed bool
}

// addBatch encodes recs as TBatch frames of at most DefaultBatchRecords
// each. When the request negotiated compression, payloads of at least
// wire.MinCompressSize are deflated; the plain path encodes straight into
// the segment buffer with no intermediate copy.
func (e *wireStreamEnc) addBatch(recs []store.Record) error {
	for len(recs) > 0 {
		n := len(recs)
		if n > wire.DefaultBatchRecords {
			n = wire.DefaultBatchRecords
		}
		if e.compress {
			var err error
			e.scratch, err = wire.AppendBatchPayload(e.scratch[:0], recs[:n])
			if err != nil {
				return err
			}
			e.buf, err = wire.AppendCompressedFrame(e.buf, wire.Frame{Type: wire.TBatch, ID: e.id, Payload: e.scratch})
			if err != nil {
				return err
			}
		} else {
			start := len(e.buf)
			buf, err := wire.AppendBatchPayload(wire.BeginFrame(e.buf, wire.TBatch, e.id), recs[:n])
			if err != nil {
				return err
			}
			e.buf = wire.FinishFrame(buf, start)
		}
		recs = recs[n:]
		if len(e.buf) >= segmentBytes {
			if err := e.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush writes the buffered segment under the connection's write lock.
func (e *wireStreamEnc) flush() error {
	if len(e.buf) == 0 {
		return nil
	}
	e.w.mu.Lock()
	_, err := e.w.c.Write(e.buf)
	e.w.mu.Unlock()
	e.buf = e.buf[:0]
	if err != nil {
		e.ioFailed = true
	}
	return err
}

// finish appends the TTrailer — the stream's commit point — and flushes
// whatever remains, so small responses go out as one write.
func (e *wireStreamEnc) finish(tr wire.Trailer) error {
	start := len(e.buf)
	buf, err := wire.AppendTrailerPayload(wire.BeginFrame(e.buf, wire.TTrailer, e.id), tr)
	if err != nil {
		return err
	}
	e.buf = wire.FinishFrame(buf, start)
	return e.flush()
}

// writeError sends a TError frame; hint < 0 means no retry-after.
func (w *wireWriter) writeError(id uint64, code uint8, hint int64, msg string) error {
	p, err := wire.AppendErrorPayload(nil, wire.ErrorFrame{Code: code, RetryAfterSec: hint, Msg: msg})
	if err != nil {
		return err
	}
	return w.write(wire.Frame{Type: wire.TError, ID: id, Payload: p})
}

// serveWireConn reads request frames until the connection dies or sends a
// malformed frame (framing is terminal: a corrupt stream cannot be
// re-synchronized). Handlers run concurrently; the connection closes only
// after every handler has finished writing.
func (s *Server) serveWireConn(c net.Conn) {
	ctx, cancel := context.WithCancel(context.Background())
	w := &wireWriter{c: c}
	var handlers sync.WaitGroup
	br := bufio.NewReaderSize(c, 1<<16)
	for {
		f, err := wire.ReadFrame(br)
		if err != nil {
			break
		}
		switch f.Type {
		case wire.TPing:
			s.wireReqWG.Add(1)
			handlers.Add(1)
			go func(id uint64) {
				defer s.wireReqWG.Done()
				defer handlers.Done()
				w.write(wire.Frame{
					Type:    wire.TPong,
					ID:      id,
					Payload: wire.AppendPongPayload(nil, wire.Pong{Ready: !s.draining.Load()}),
				})
			}(f.ID)
		case wire.TQuery, wire.TScan:
			s.reqTotal.Inc()
			if s.draining.Load() {
				s.reqDraining.Inc()
				w.writeError(f.ID, wire.CodeUnavailable, int64(s.retryAfterSec), "draining")
				continue
			}
			s.wireReqWG.Add(1)
			handlers.Add(1)
			go func(f wire.Frame) {
				defer s.wireReqWG.Done()
				defer handlers.Done()
				s.handleWireRequest(ctx, w, f)
			}(f)
		case wire.TPut, wire.TDelete, wire.TFlush:
			s.reqTotal.Inc()
			if s.draining.Load() {
				s.reqDraining.Inc()
				w.writeError(f.ID, wire.CodeUnavailable, int64(s.retryAfterSec), "draining")
				continue
			}
			s.wireReqWG.Add(1)
			handlers.Add(1)
			go func(f wire.Frame) {
				defer s.wireReqWG.Done()
				defer handlers.Done()
				s.handleWireWrite(ctx, w, f)
			}(f)
		default:
			// A response-direction or unknown frame from a client is a
			// protocol violation; drop the connection.
			cancel()
			handlers.Wait()
			c.Close()
			return
		}
	}
	cancel()
	handlers.Wait()
	c.Close()
}

// handleWireRequest runs one TQuery/TScan through admission, the service's
// streaming pipeline, and the incremental response encoding: TBatch frames
// go out as the shard merge produces them, so the client's first records
// arrive while later curve intervals are still being scanned, and the
// trailer commits the degraded tiling only once every shard has finished.
// Failure mapping mirrors the HTTP handlers': shed → CodeOverloaded
// (+hint), queued past deadline → CodeDeadline, drain → CodeUnavailable,
// malformed → CodeBadRequest. A failure after batches have flushed is
// reported as a TError frame — the protocol's promise that a missing
// trailer is always accompanied by a reason or a dead connection.
func (s *Server) handleWireRequest(connCtx context.Context, w *wireWriter, f wire.Frame) {
	var timeout time.Duration
	var compress bool
	open := func(ctx context.Context) (*service.Stream, error) { return nil, nil }
	switch f.Type {
	case wire.TQuery:
		req, err := wire.DecodeQueryRequest(f.Payload)
		if err != nil {
			s.reqBad.Inc()
			w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
			return
		}
		box, err := query.NewBox(s.svc.Curve().Universe(), req.Lo, req.Hi)
		if err != nil {
			s.reqBad.Inc()
			w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
			return
		}
		timeout, compress = req.Timeout, req.Compress
		open = func(ctx context.Context) (*service.Stream, error) { return s.svc.RangeStream(ctx, box) }
	case wire.TScan:
		req, err := wire.DecodeScanRequest(f.Payload)
		if err != nil {
			s.reqBad.Inc()
			w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
			return
		}
		timeout, compress = req.Timeout, req.Compress
		open = func(ctx context.Context) (*service.Stream, error) { return s.svc.ScanStream(ctx, req.Ivs) }
	}

	ctx := connCtx
	if timeout = s.clampTimeout(timeout); timeout > 0 {
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
			w.writeError(f.ID, wire.CodeOverloaded, int64(s.retryAfterSec), "overloaded: inflight limit reached within the queue-wait budget")
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			w.writeError(f.ID, wire.CodeDeadline, -1, "deadline exceeded while queued for admission")
		default: // connection went away while queued; nobody is listening
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
	st, err := open(ctx)
	if err != nil {
		s.failWireRequest(w, f, err)
		return
	}
	defer st.Close()
	enc := &wireStreamEnc{w: w, id: f.ID, compress: compress}
	for {
		recs, err := st.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			s.failWireRequest(w, f, err)
			return
		}
		if err := enc.addBatch(recs); err != nil {
			if !enc.ioFailed {
				s.reqErrors.Inc()
				w.writeError(f.ID, wire.CodeInternal, -1, err.Error())
				return
			}
			// The connection broke mid-stream; the read loop notices too.
			s.reqErrors.Inc()
			return
		}
	}
	res := st.Trailer()
	elapsed := time.Since(start)
	tr := wire.Trailer{
		Unavailable:   res.Unavailable,
		ShardsQueried: res.ShardsQueried,
		PagesRead:     res.PagesRead,
		ElapsedUS:     elapsed.Microseconds(),
	}
	if err := enc.finish(tr); err != nil {
		if !enc.ioFailed {
			w.writeError(f.ID, wire.CodeInternal, -1, err.Error())
		}
		s.reqErrors.Inc()
		return
	}
	s.latency.Observe(elapsed.Microseconds())
	s.reqOK.Inc()
}

// handleWireWrite runs one TPut/TDelete/TFlush through the same admission
// control and deadline clamps as reads, applies it through the service's
// durable write path, and answers with a TWriteAck — Acked=1, Required=1,
// empty replica list: the standalone daemon is its own single replica, and
// routers build the fan-out view themselves. Failure mapping mirrors
// writeWriteError's HTTP statuses: read-only → CodeReadOnly (403),
// drain/close → CodeUnavailable (503), deadline → CodeDeadline (504),
// vanished client → silence, anything else → CodeBadRequest (400).
func (s *Server) handleWireWrite(connCtx context.Context, w *wireWriter, f wire.Frame) {
	var timeout time.Duration
	var apply func(ctx context.Context) error
	switch f.Type {
	case wire.TPut, wire.TDelete:
		req, err := wire.DecodeWriteRequest(f.Payload)
		if err != nil {
			s.reqBad.Inc()
			w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
			return
		}
		timeout = req.Timeout
		rec := store.Record{Point: req.Point, Payload: req.Payload}
		if f.Type == wire.TPut {
			apply = func(ctx context.Context) error { return s.svc.Put(ctx, rec) }
		} else {
			apply = func(ctx context.Context) error { return s.svc.Delete(ctx, rec) }
		}
	case wire.TFlush:
		req, err := wire.DecodeFlushRequest(f.Payload)
		if err != nil {
			s.reqBad.Inc()
			w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
			return
		}
		timeout = req.Timeout
		apply = func(ctx context.Context) error { return s.svc.Flush(ctx) }
	}

	ctx := connCtx
	if timeout = s.clampTimeout(timeout); timeout > 0 {
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
			w.writeError(f.ID, wire.CodeOverloaded, int64(s.retryAfterSec), "overloaded: inflight limit reached within the queue-wait budget")
		case errors.Is(err, context.DeadlineExceeded):
			s.reqDeadline.Inc()
			w.writeError(f.ID, wire.CodeDeadline, -1, "deadline exceeded while queued for admission")
		default: // connection went away while queued; nobody is listening
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
	if err := apply(ctx); err != nil {
		s.failWireWrite(w, f.ID, err)
		return
	}
	elapsed := time.Since(start)
	p, err := wire.AppendWriteAckPayload(nil, wire.WriteAck{
		Acked:     1,
		Required:  1,
		ElapsedUS: elapsed.Microseconds(),
	})
	if err != nil {
		s.reqErrors.Inc()
		w.writeError(f.ID, wire.CodeInternal, -1, err.Error())
		return
	}
	if err := w.write(wire.Frame{Type: wire.TWriteAck, ID: f.ID, Payload: p}); err != nil {
		s.reqErrors.Inc()
		return
	}
	s.latency.Observe(elapsed.Microseconds())
	s.reqOK.Inc()
}

// failWireWrite maps a write failure to its TError frame, the binary twin
// of writeWriteError.
func (s *Server) failWireWrite(w *wireWriter, id uint64, err error) {
	switch {
	case errors.Is(err, service.ErrReadOnly):
		s.reqBad.Inc()
		w.writeError(id, wire.CodeReadOnly, -1, "read-only: the daemon was started without -data")
	case errors.Is(err, service.ErrShuttingDown), errors.Is(err, store.ErrClosed):
		s.reqDraining.Inc()
		w.writeError(id, wire.CodeUnavailable, int64(s.retryAfterSec), "shutting down")
	case errors.Is(err, context.DeadlineExceeded):
		s.reqDeadline.Inc()
		w.writeError(id, wire.CodeDeadline, -1, "deadline exceeded")
	case errors.Is(err, context.Canceled):
		s.reqCanceled.Inc() // connection closed; response goes nowhere
	default:
		s.reqErrors.Inc()
		w.writeError(id, wire.CodeBadRequest, -1, err.Error())
	}
}

// failWireRequest maps a stream-open or mid-stream failure to its TError
// frame (or silence for a vanished client), keeping the binary protocol's
// failure vocabulary identical to the HTTP handlers'.
func (s *Server) failWireRequest(w *wireWriter, f wire.Frame, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reqDeadline.Inc()
		w.writeError(f.ID, wire.CodeDeadline, -1, "deadline exceeded mid-scan")
	case errors.Is(err, context.Canceled):
		s.reqCanceled.Inc() // connection closed; response goes nowhere
	case errors.Is(err, service.ErrShuttingDown):
		s.reqDraining.Inc()
		w.writeError(f.ID, wire.CodeUnavailable, int64(s.retryAfterSec), "shutting down")
	case f.Type == wire.TScan:
		// Scan validation failures (unsorted, out of range) are the
		// client's fault, mirroring HTTP 400.
		s.reqBad.Inc()
		w.writeError(f.ID, wire.CodeBadRequest, -1, err.Error())
	default:
		s.reqErrors.Inc()
		w.writeError(f.ID, wire.CodeInternal, -1, err.Error())
	}
}
