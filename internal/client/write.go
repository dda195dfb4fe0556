package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/query"
	"repro/internal/service"
	"repro/internal/store"
	wiretext "repro/internal/wire/text"
)

// ErrReadOnly is the sentinel wrapped by errors reporting that the daemon
// was started without a durable directory (403 / CodeReadOnly); test with
// errors.Is. Read-only answers are terminal — the daemon will not grow a
// WAL by being asked again.
var ErrReadOnly = errors.New("client: server is read-only")

// MaybeAppliedError marks a failed write attempt whose request may have
// reached the server: the connection died after the frame left, the
// deadline expired server-side, or the server failed after entering the
// write path. The Client repeats these only for idempotent operations
// (Delete, Flush) — retrying a Put that may already sit in the WAL would
// insert a duplicate record. Refusals the server signals before touching
// any state (shed, draining, read-only) are never wrapped this way; they
// are the server marking the attempt idempotent-safe.
type MaybeAppliedError struct {
	Err error
}

func (e *MaybeAppliedError) Error() string {
	return fmt.Sprintf("client: write may have been applied: %v", e.Err)
}
func (e *MaybeAppliedError) Unwrap() error { return e.Err }

// maybeApplied wraps err as a possibly-applied write failure.
func maybeApplied(err error) *MaybeAppliedError { return &MaybeAppliedError{Err: err} }

// Put durably inserts rec through the daemon, acknowledged only after the
// owning shard's WAL has synced it. Retry semantics are deliberately
// asymmetric to reads: attempts the server refused before touching state
// (shed, draining) are retried within the policy's budget, but an attempt
// that may have been applied — connection death after the request left,
// server-side deadline — fails immediately with a *MaybeAppliedError,
// because a repeated put is a duplicate record. Callers that can tolerate
// duplicates may errors.As for MaybeAppliedError and re-issue themselves.
func (c *Client) Put(ctx context.Context, rec store.Record, opts ...CallOption) (wiretext.WriteResponse, error) {
	o := applyCallOpts(opts)
	return doWriteRetry(ctx, c, false, func(ctx context.Context) (wiretext.WriteResponse, error) {
		return c.tr.Put(ctx, rec, o.timeout)
	})
}

// Delete durably removes every stored instance equal to rec. Deletion is
// idempotent — removing an absent record is a no-op — so unlike Put,
// maybe-applied failures are retried within the policy's budget.
func (c *Client) Delete(ctx context.Context, rec store.Record, opts ...CallOption) (wiretext.WriteResponse, error) {
	o := applyCallOpts(opts)
	return doWriteRetry(ctx, c, true, func(ctx context.Context) (wiretext.WriteResponse, error) {
		return c.tr.Delete(ctx, rec, o.timeout)
	})
}

// Flush persists every shard's memtable into an on-disk run. Flushing is
// idempotent; maybe-applied failures are retried.
func (c *Client) Flush(ctx context.Context, opts ...CallOption) (wiretext.WriteResponse, error) {
	o := applyCallOpts(opts)
	return doWriteRetry(ctx, c, true, func(ctx context.Context) (wiretext.WriteResponse, error) {
		return c.tr.Flush(ctx, o.timeout)
	})
}

// doWriteRetry is doRetry's write-side twin: *RetryableError attempts are
// always repeated (the server refused them before any state changed), and
// *MaybeAppliedError attempts are repeated only when the operation is
// idempotent. Everything else is terminal on the first occurrence.
func doWriteRetry(ctx context.Context, c *Client, idempotent bool, op func(ctx context.Context) (wiretext.WriteResponse, error)) (wiretext.WriteResponse, error) {
	q := uint64(c.queries.Add(1))
	var lastErr error
	var delay time.Duration
	for attempt := 1; attempt <= c.retry.MaxAttempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if err := c.sleep(ctx, delay); err != nil {
				return wiretext.WriteResponse{}, fmt.Errorf("client: giving up while backing off: %w (last failure: %w)", err, lastErr)
			}
		}
		c.attempts.Add(1)
		out, err := op(ctx)
		if err == nil {
			return out, nil
		}
		if errors.Is(err, ErrOverloaded) {
			c.shed.Add(1)
		}
		var re *RetryableError
		var ma *MaybeAppliedError
		switch {
		case errors.As(err, &re):
			lastErr = re.Err
			if re.RetryAfter >= 0 {
				delay = re.RetryAfter
			} else {
				delay = c.retry.backoff(q, attempt)
			}
		case idempotent && errors.As(err, &ma):
			lastErr = ma.Err
			delay = c.retry.backoff(q, attempt)
		default:
			return wiretext.WriteResponse{}, err
		}
	}
	return wiretext.WriteResponse{}, fmt.Errorf("client: %d attempts exhausted: %w", c.retry.MaxAttempts, lastErr)
}

// Digest fetches the daemon's anti-entropy summary over the given curve
// intervals (GET /digest): an order-independent record count + checksum
// that two replicas of a range can compare without shipping the records.
// Digests are reads, so retry semantics match QueryBox's.
func (c *Client) Digest(ctx context.Context, ivs []query.Interval, opts ...CallOption) (service.RangeDigest, error) {
	o := applyCallOpts(opts)
	return doRetry(ctx, c, func(ctx context.Context) (service.RangeDigest, error) {
		return c.digestOnce(ctx, ivs, o.timeout)
	})
}

// digestOnce runs one GET /digest attempt with JSON-read classification:
// transport errors before a response and 429/503 answers are retryable.
func (c *Client) digestOnce(ctx context.Context, ivs []query.Interval, timeout time.Duration) (service.RangeDigest, error) {
	v := url.Values{}
	v.Set("ivs", wiretext.FormatIntervals(ivs))
	if timeout > 0 {
		v.Set("timeout", timeout.String())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/digest?"+v.Encode(), nil)
	if err != nil {
		return service.RangeDigest{}, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			return service.RangeDigest{}, fmt.Errorf("client: %w", ctx.Err())
		}
		return service.RangeDigest{}, retryable(err)
	}
	defer resp.Body.Close()
	body, readErr := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	switch resp.StatusCode {
	case http.StatusOK:
		if readErr != nil {
			return service.RangeDigest{}, fmt.Errorf("client: response truncated (not retried): %w", readErr)
		}
		var out wiretext.DigestResponse
		if err := json.Unmarshal(body, &out); err != nil {
			return service.RangeDigest{}, fmt.Errorf("client: decoding /digest: %w", err)
		}
		sum, err := strconv.ParseUint(out.Sum, 16, 64)
		if err != nil {
			return service.RangeDigest{}, fmt.Errorf("client: digest sum %q: %w", out.Sum, err)
		}
		return service.RangeDigest{Count: out.Count, Sum: sum, Generation: out.Generation}, nil
	case http.StatusTooManyRequests:
		return service.RangeDigest{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrOverloaded, errorBody(body)),
		}
	case http.StatusServiceUnavailable:
		return service.RangeDigest{}, &RetryableError{
			RetryAfter: retryAfterHint(resp),
			Err:        fmt.Errorf("%w: %s", ErrUnavailable, errorBody(body)),
		}
	default:
		return service.RangeDigest{}, fmt.Errorf("client: /digest returned %d: %s", resp.StatusCode, errorBody(body))
	}
}

// WireInfo asks the daemon for its full binary-protocol advertisement
// (GET /wireinfo). found is false — with no error — when the daemon does
// not serve the binary protocol at all; callers then stay on JSON for
// everything. A daemon may advertise an address without the write
// capability: reads may upgrade while writes must stay on HTTP.
func (c *Client) WireInfo(ctx context.Context) (info wiretext.WireInfo, found bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/wireinfo", nil)
	if err != nil {
		return wiretext.WireInfo{}, false, fmt.Errorf("client: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return wiretext.WireInfo{}, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if err != nil {
		return wiretext.WireInfo{}, false, fmt.Errorf("client: %w", err)
	}
	if resp.StatusCode == http.StatusNotFound {
		return wiretext.WireInfo{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return wiretext.WireInfo{}, false, fmt.Errorf("client: /wireinfo returned %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return wiretext.WireInfo{}, false, fmt.Errorf("client: decoding /wireinfo: %w", err)
	}
	return info, true, nil
}
