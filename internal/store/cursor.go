package store

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/query"
)

// DefaultScanBatch is the record count a cursor targets per batch when
// ScanBatchSize is not given. It matches the wire protocol's default batch
// size so a streaming server fills frames without re-chunking.
const DefaultScanBatch = 4096

// Batch is one increment of a cursor scan. Draining a cursor yields exactly
// the records, dark intervals, and page charges a single Scan over the same
// intervals would return — the batches are a partition of the ScanResult,
// not an approximation of it.
type Batch struct {
	// Records holds the next run of readable records in scan order
	// (ascending curve key, duplicate keys in store order). The slice, like
	// Keys and Dark, aliases cursor-owned buffers and is valid only until
	// the next Next or Close call.
	Records []Record
	// Keys holds the curve key of each record, aligned with Records, so
	// consumers can merge streams without re-deriving keys from points.
	Keys []uint64
	// Dark lists the key spans newly discovered unavailable during this
	// batch, clipped to the scanned intervals. Spans are deltas: they may
	// abut or overlap spans from earlier batches, and a Durable cursor may
	// deliver them out of order across runs — callers accumulate the union
	// and query.MergeIntervals it, which equals ScanResult.Unavailable once
	// the cursor is drained.
	Dark []query.Interval
	// Watermark is a strict upper bound on this batch and a lower bound on
	// everything still to come: every key in this batch is < Watermark, and
	// every future record key and future Dark span's Lo is >= Watermark.
	// A batch that exhausts the scan carries math.MaxUint64 (though a
	// cursor that only discovers exhaustion afterwards may return io.EOF
	// directly after a finite-watermark batch). Mergers use it to prove a
	// candidate record can no longer be contradicted by an unseen dark
	// span.
	Watermark uint64
	// PagesRead counts the distinct leaf pages first touched during this
	// Next call, dark ones included. Summed over all batches it equals
	// ScanResult.PagesRead.
	PagesRead int
}

// BatchCursor iterates a scan incrementally, page-at-a-time, so upper
// layers can start shipping early batches while later intervals are still
// unread. Cursors are single-goroutine objects; the context is passed per
// Next call so one cursor can serve several request phases.
type BatchCursor interface {
	// Next returns the next batch, or io.EOF after the last one.
	// Cancellation and deadline are honored between leaf page reads, like
	// Scan; under ScanStrict the first page that stays unavailable fails
	// the cursor with an error wrapping ErrPageUnavailable. Any non-nil
	// error (io.EOF included) is sticky: the cursor is exhausted and
	// further calls return the same error.
	Next(ctx context.Context) (Batch, error)
	// Close releases the cursor's buffers. It is idempotent and safe to
	// call at any point; a half-drained cursor must still be closed.
	Close()
}

// validateScanIntervals checks the sorted-disjoint precondition the cursor
// watermark logic relies on; a violation would silently break downstream
// merges, so every scan entry point enforces it.
func validateScanIntervals(ivs []query.Interval) error {
	for i, iv := range ivs {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("store: cursor interval %d inverted [%d, %d)", i, iv.Lo, iv.Hi)
		}
		if i > 0 && iv.Lo < ivs[i-1].Hi {
			return fmt.Errorf("store: cursor intervals not sorted and disjoint at %d", i)
		}
	}
	return nil
}

// ScanCursor opens an incremental scan over the given sorted, disjoint
// curve intervals; Scan is this cursor drained. It charges one descent per
// interval and one leaf read per distinct page, and it lets the service
// layer stream batches onto the wire while later intervals are still being
// read, bounding per-request memory by the batch size instead of the result
// size.
//
// The cursor retains ivs; the caller must not mutate it until Close.
func (st *Store) ScanCursor(ivs []query.Interval, opts ...ScanOption) (BatchCursor, error) {
	cfg := scanConfig{batch: DefaultScanBatch}
	for _, opt := range opts {
		if opt != nil {
			opt.applyScan(&cfg)
		}
	}
	if err := validateScanIntervals(ivs); err != nil {
		return nil, err
	}
	return &storeCursor{st: st, cfg: cfg, ivs: ivs, curID: -1}, nil
}

// storeCursor walks intervals in order and pages within each interval in
// order, which makes the page sequence globally non-decreasing — one
// memoized current page serves as the per-scan page cache, and a page
// shared by the tail of one interval and the head of the next is fetched
// (and counted) once.
//
// Correctness hinges on two facts a two-pass scan would get for free:
//
//   - A record on a readable page can be retroactively darkened only by a
//     failed page that shares its key across the page boundary (a scan
//     withholds every record whose key lands in a dark span). Such a key
//     is by construction the first key of the next page, so the cursor
//     holds back exactly the records with key >= the next page's first key
//     until that page's fate is known, and drops held records a new dark
//     span covers.
//   - Dark spans are discovered in ascending Lo order (pages ascend, spans
//     are clipped per interval, intervals ascend), so merging each new
//     span into the tail of the accumulated list is equivalent to
//     query.MergeIntervals over the whole set.
type storeCursor struct {
	st  *Store
	cfg scanConfig
	ivs []query.Interval

	ivIdx int  // current interval; len(ivs) when exhausted
	open  bool // slot range of ivs[ivIdx] has been located
	page  int  // next page to visit inside the open interval
	last  int  // last page of the open interval
	lo    int  // slot range [lo, hi) of the open interval
	hi    int

	curID     int // memoized current page (ids arrive non-decreasing)
	curPg     Page
	curErr    error
	pagesThis int // distinct pages first fetched during this Next

	dark []query.Interval // merged dark union so far (sorted, disjoint)

	// Boundary holdback: records collected from the open interval whose
	// fate may still change, in slot order.
	pendRecs []Record
	pendKeys []uint64

	// Output buffers, reused across Next calls.
	outRecs []Record
	outKeys []uint64
	outDark []query.Interval

	done bool
	err  error
}

func (c *storeCursor) Next(ctx context.Context) (Batch, error) {
	if c.err != nil {
		return Batch{}, c.err
	}
	if c.done {
		return Batch{}, io.EOF
	}
	c.outRecs = c.outRecs[:0]
	c.outKeys = c.outKeys[:0]
	c.outDark = c.outDark[:0]
	c.pagesThis = 0
	for len(c.outRecs) < c.cfg.batch {
		if !c.open {
			if c.ivIdx >= len(c.ivs) {
				c.done = true
				break
			}
			iv := c.ivs[c.ivIdx]
			lo := c.st.descend(iv.Lo)
			hi := lo + sort.Search(len(c.st.keys)-lo, func(i int) bool { return c.st.keys[lo+i] >= iv.Hi })
			if lo == hi {
				c.ivIdx++
				continue
			}
			c.lo, c.hi = lo, hi
			c.page = lo / c.st.pageSize
			c.last = (hi - 1) / c.st.pageSize
			c.open = true
		}
		if err := ctx.Err(); err != nil {
			return c.fail(err)
		}
		iv := c.ivs[c.ivIdx]
		pg, pgErr := c.getPage(c.page)
		if pgErr != nil {
			if c.cfg.strict {
				return c.fail(pgErr)
			}
			ks := c.st.pageKeySpan(c.page)
			if ks.Lo < iv.Lo {
				ks.Lo = iv.Lo
			}
			if ks.Hi > iv.Hi {
				ks.Hi = iv.Hi
			}
			if ks.Lo < ks.Hi {
				c.outDark = append(c.outDark, ks)
				c.addDark(ks)
				c.dropPend(ks)
			}
		} else {
			a := c.page * c.st.pageSize
			if a < c.lo {
				a = c.lo
			}
			b := (c.page + 1) * c.st.pageSize
			if b > c.hi {
				b = c.hi
			}
			for i := a; i < b; i++ {
				k := c.st.keys[i]
				if query.IntervalsContain(c.dark, k) {
					continue
				}
				c.pendRecs = append(c.pendRecs, pg.Records[i%c.st.pageSize])
				c.pendKeys = append(c.pendKeys, k)
			}
		}
		if c.page == c.last {
			c.emitPend(0, true)
			c.open = false
			c.ivIdx++
		} else {
			c.page++
			c.emitPend(c.st.keys[c.page*c.st.pageSize], false)
		}
	}
	wm := uint64(math.MaxUint64)
	switch {
	case c.open:
		// Stopped at a page boundary mid-interval: everything emitted is
		// below the next page's first key, everything still to come (held
		// records included) is at or above it.
		wm = c.st.keys[c.page*c.st.pageSize]
	case c.ivIdx < len(c.ivs):
		wm = c.ivs[c.ivIdx].Lo
	}
	if c.done && len(c.outRecs) == 0 && len(c.outDark) == 0 && c.pagesThis == 0 {
		return Batch{}, io.EOF
	}
	return Batch{
		Records:   c.outRecs,
		Keys:      c.outKeys,
		Dark:      c.outDark,
		Watermark: wm,
		PagesRead: c.pagesThis,
	}, nil
}

func (c *storeCursor) Close() {
	c.done = true
	c.pendRecs, c.pendKeys = nil, nil
	c.outRecs, c.outKeys, c.outDark = nil, nil, nil
}

func (c *storeCursor) fail(err error) (Batch, error) {
	c.err = err
	return Batch{}, err
}

// pageKeySpan returns the half-open curve-key range [first, last+1] covered
// by the records of the given page.
func (st *Store) pageKeySpan(page int) query.Interval {
	lo := page * st.pageSize
	hi := lo + st.pageSize
	if hi > len(st.keys) {
		hi = len(st.keys)
	}
	return query.Interval{Lo: st.keys[lo], Hi: st.keys[hi-1] + 1}
}

// getPage mirrors pageCache.get's charging: one leaf read per distinct
// page, fetch errors memoized so a page shared by two intervals is neither
// re-fetched nor re-counted.
func (c *storeCursor) getPage(id int) (Page, error) {
	if id == c.curID {
		return c.curPg, c.curErr
	}
	c.curID = id
	c.pagesThis++
	c.st.stats.leafReads.Add(1)
	c.curPg, c.curErr = c.st.fetchPage(id)
	return c.curPg, c.curErr
}

// addDark folds a newly discovered span into the merged union. Spans
// arrive in ascending Lo order, so only the tail can overlap.
func (c *storeCursor) addDark(ks query.Interval) {
	if n := len(c.dark); n > 0 && ks.Lo <= c.dark[n-1].Hi {
		if ks.Hi > c.dark[n-1].Hi {
			c.dark[n-1].Hi = ks.Hi
		}
		return
	}
	c.dark = append(c.dark, ks)
}

// dropPend removes held records a new dark span covers — the page-boundary
// duplicate-key case where a readable page's records go dark because the
// rest of their key's run was lost.
func (c *storeCursor) dropPend(ks query.Interval) {
	keep := 0
	for i, k := range c.pendKeys {
		if k >= ks.Lo && k < ks.Hi {
			continue
		}
		c.pendRecs[keep] = c.pendRecs[i]
		c.pendKeys[keep] = k
		keep++
	}
	c.pendRecs = c.pendRecs[:keep]
	c.pendKeys = c.pendKeys[:keep]
}

// emitPend moves held records whose fate is settled into the output: all
// of them at an interval boundary, otherwise those below thr (the next
// page's first key — a held record at thr could still be darkened by that
// page failing).
func (c *storeCursor) emitPend(thr uint64, all bool) {
	j := len(c.pendKeys)
	if !all {
		j = sort.Search(j, func(i int) bool { return c.pendKeys[i] >= thr })
	}
	if j == 0 {
		return
	}
	c.outRecs = append(c.outRecs, c.pendRecs[:j]...)
	c.outKeys = append(c.outKeys, c.pendKeys[:j]...)
	n := copy(c.pendRecs, c.pendRecs[j:])
	c.pendRecs = c.pendRecs[:n]
	n = copy(c.pendKeys, c.pendKeys[j:])
	c.pendKeys = c.pendKeys[:n]
}
