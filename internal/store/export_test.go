package store

import (
	"context"
	"sort"

	"repro/internal/grid"
	"repro/internal/query"
)

// The scan implementations below predate the cursor. They are kept, test
// only, as independent references: Store.Scan and Durable.Scan are drained
// cursors, so comparing a cursor with Scan alone would compare it with
// itself. Both take already-validated sorted, disjoint intervals.
var (
	RefScan        = refScan
	RefDurableScan = refDurableScan
)

// refScan is the two-pass materialized scan: pass 1 locates each
// interval's slot range and fetches every page it touches through a page
// cache, collecting dark key spans; pass 2 collects the records, skipping
// dark pages and any record whose key falls in a dark span.
func refScan(st *Store, ctx context.Context, ivs []query.Interval, opts ...ScanOption) (ScanResult, error) {
	var cfg scanConfig
	for _, opt := range opts {
		if opt != nil {
			opt.applyScan(&cfg)
		}
	}
	cache := newPageCache(st)
	pagesRead := func() int { return len(cache.pages) + len(cache.failed) }
	type span struct {
		iv     query.Interval
		lo, hi int // slot range [lo, hi) of records inside iv
	}
	spans := make([]span, 0, len(ivs))
	var dark []query.Interval
	for _, iv := range ivs {
		lo := st.descend(iv.Lo)
		hi := lo + sort.Search(len(st.keys)-lo, func(i int) bool { return st.keys[lo+i] >= iv.Hi })
		spans = append(spans, span{iv: iv, lo: lo, hi: hi})
		if lo == hi {
			continue
		}
		for page := lo / st.pageSize; page <= (hi-1)/st.pageSize; page++ {
			if err := ctx.Err(); err != nil {
				return ScanResult{PagesRead: pagesRead()}, err
			}
			if _, err := cache.get(page); err != nil {
				if cfg.strict {
					return ScanResult{PagesRead: pagesRead()}, err
				}
				ks := st.pageKeySpan(page)
				if ks.Lo < iv.Lo {
					ks.Lo = iv.Lo
				}
				if ks.Hi > iv.Hi {
					ks.Hi = iv.Hi
				}
				if ks.Lo < ks.Hi {
					dark = append(dark, ks)
				}
			}
		}
	}
	dark = query.MergeIntervals(dark)
	var out []Record
	cur := -1
	var pg Page
	var pgErr error
	for _, sp := range spans {
		for i := sp.lo; i < sp.hi; i++ {
			if id := i / st.pageSize; id != cur {
				pg, pgErr = cache.get(id)
				cur = id
			}
			if pgErr != nil || query.IntervalsContain(dark, st.keys[i]) {
				continue
			}
			out = append(out, pg.Records[i%st.pageSize])
		}
	}
	return ScanResult{Records: out, Unavailable: dark, PagesRead: pagesRead()}, nil
}

// refDurableScan is the run-merge scan: a refScan of every run, oldest
// first, each run's tombstones shadowing the records accumulated from older
// runs, then the memtable; every record re-keyed through the curve, the
// whole set stably sorted by key, and records inside the union of the runs'
// dark intervals withheld.
func refDurableScan(d *Durable, ctx context.Context, ivs []query.Interval, opts ...ScanOption) (ScanResult, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ScanResult{}, ErrClosed
	}
	snapshot := d.runs[:len(d.runs):len(d.runs)]
	puts, tombs := d.mem.Sorted()
	d.mu.Unlock()

	type keyed struct {
		key uint64
		rec Record
	}
	id := func(k keyed) (uint64, uint64) { return k.key, k.rec.Payload }
	var acc []keyed
	var dark []query.Interval
	pagesRead := 0
	for _, r := range snapshot {
		res, err := refScan(r.st, ctx, ivs, opts...)
		pagesRead += res.PagesRead
		if err != nil {
			return ScanResult{PagesRead: pagesRead}, err
		}
		dark = append(dark, res.Unavailable...)
		acc = shadow(acc, r.tombKeys, r.tombs, id)
		for _, rec := range res.Records {
			acc = append(acc, keyed{d.c.Index(rec.Point), rec})
		}
	}
	memTombKeys := make([]uint64, len(tombs))
	memTombs := make([]Record, len(tombs))
	for i, e := range tombs {
		memTombKeys[i], memTombs[i] = e.Key, Record{Point: grid.Point(e.Point), Payload: e.Payload}
	}
	acc = shadow(acc, memTombKeys, memTombs, id)
	for _, e := range puts {
		if query.IntervalsContain(ivs, e.Key) {
			acc = append(acc, keyed{e.Key, Record{Point: grid.Point(e.Point).Clone(), Payload: e.Payload}})
		}
	}
	dark = query.MergeIntervals(dark)
	sort.SliceStable(acc, func(a, b int) bool { return acc[a].key < acc[b].key })
	out := make([]Record, 0, len(acc))
	for _, k := range acc {
		if !query.IntervalsContain(dark, k.key) {
			out = append(out, k.rec)
		}
	}
	return ScanResult{Records: out, Unavailable: dark, PagesRead: pagesRead}, nil
}

// TakeRunStats returns the I/O counters of every run store, oldest first,
// and resets them.
func (d *Durable) TakeRunStats() []Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Stats, len(d.runs))
	for i, r := range d.runs {
		out[i] = r.st.Stats()
		r.st.ResetStats()
	}
	return out
}
