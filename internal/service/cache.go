package service

import (
	"container/list"
	"strconv"
	"strings"

	"sync"

	"repro/internal/metrics"
	"repro/internal/query"
)

// DefaultCacheSize is the decomposition cache capacity used when
// WithCacheSize is not given. Decompositions are small (a few dozen intervals
// for realistic boxes), so a thousand entries is cheap and covers the hot
// set of a skewed workload.
const DefaultCacheSize = 1024

// decompCache memoizes box → curve-interval decompositions behind the
// service. It combines two mechanisms:
//
//   - an LRU of up to cap completed decompositions, keyed by the exact box
//     corners (the curve is fixed per service, so it does not key);
//   - singleflight coalescing of identical in-flight decompositions: when
//     several queries ask for the same uncached box at once, one goroutine
//     (the leader) computes it and the rest wait on its result.
//
// cap = 0 disables the LRU but keeps coalescing — concurrent duplicates
// still share one computation, completed results are just not retained.
type decompCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List               // front = most recently used
	byKey     map[string]*list.Element // key → LRU entry
	inflight  map[string]*flight
	decompose func(query.Box) []query.Interval

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	leader    *metrics.Counter
	shared    *metrics.Counter
}

// entry is one cached decomposition.
type entry struct {
	key string
	ivs []query.Interval
}

// flight is one in-progress decomposition; waiters block on done and then
// read ivs, which the leader writes exactly once before closing done.
type flight struct {
	done chan struct{}
	ivs  []query.Interval
}

// newDecompCache builds a cache of the given capacity (0 disables retention)
// around the given decomposition function, reporting into reg.
func newDecompCache(capacity int, decompose func(query.Box) []query.Interval, reg *metrics.Registry) *decompCache {
	return &decompCache{
		cap:       capacity,
		ll:        list.New(),
		byKey:     map[string]*list.Element{},
		inflight:  map[string]*flight{},
		decompose: decompose,
		hits:      reg.Counter("cache.hits"),
		misses:    reg.Counter("cache.misses"),
		evictions: reg.Counter("cache.evictions"),
		leader:    reg.Counter("coalesce.leader"),
		shared:    reg.Counter("coalesce.shared"),
	}
}

// cacheKey renders the box corners as the cache key. The service's curve is
// fixed, so the corners identify the decomposition completely.
func cacheKey(b query.Box) string {
	var sb strings.Builder
	sb.Grow(8 * (len(b.Lo) + len(b.Hi)))
	for _, v := range b.Lo {
		sb.WriteString(strconv.FormatUint(uint64(v), 10))
		sb.WriteByte(',')
	}
	sb.WriteByte('|')
	for _, v := range b.Hi {
		sb.WriteString(strconv.FormatUint(uint64(v), 10))
		sb.WriteByte(',')
	}
	return sb.String()
}

// get returns the decomposition of b, from cache if possible. The returned
// slice is shared between callers and must be treated as immutable.
func (dc *decompCache) get(b query.Box) []query.Interval {
	key := cacheKey(b)
	dc.mu.Lock()
	if el, ok := dc.byKey[key]; ok {
		dc.ll.MoveToFront(el)
		dc.mu.Unlock()
		dc.hits.Inc()
		return el.Value.(*entry).ivs
	}
	if fl, ok := dc.inflight[key]; ok {
		dc.mu.Unlock()
		dc.shared.Inc()
		<-fl.done
		return fl.ivs
	}
	fl := &flight{done: make(chan struct{})}
	dc.inflight[key] = fl
	dc.mu.Unlock()
	dc.misses.Inc()
	dc.leader.Inc()

	fl.ivs = dc.decompose(b)

	dc.mu.Lock()
	delete(dc.inflight, key)
	if dc.cap > 0 {
		if el, ok := dc.byKey[key]; ok {
			// A racing leader for the same key already cached it (possible
			// only if the entry was evicted and recomputed concurrently);
			// just refresh recency.
			dc.ll.MoveToFront(el)
		} else {
			dc.byKey[key] = dc.ll.PushFront(&entry{key: key, ivs: fl.ivs})
			for dc.ll.Len() > dc.cap {
				back := dc.ll.Back()
				dc.ll.Remove(back)
				delete(dc.byKey, back.Value.(*entry).key)
				dc.evictions.Inc()
			}
		}
	}
	dc.mu.Unlock()
	close(fl.done)
	return fl.ivs
}

// len returns the number of retained entries (not counting in-flight work).
func (dc *decompCache) len() int {
	dc.mu.Lock()
	defer dc.mu.Unlock()
	return dc.ll.Len()
}
