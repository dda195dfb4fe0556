package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded by the
// benchmark around the layer's public function. Spans of one operation
// share ID; Parent names the layer whose call caused this one.
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	ID     int    `json:"id"`
	Start  int64  `json:"start_ns"` // since the span log's epoch
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin returns the start time of a span, or the zero time when tracing
// is off, in which case end records nothing.
func (l *spanLog) begin(on bool) time.Time {
	if !on {
		return time.Time{}
	}
	return time.Now()
}

func (l *spanLog) end(start time.Time, layer string, id int, r opResult) {
	if start.IsZero() {
		return
	}
	l.add(span{Layer: layer, ID: id, Start: start.Sub(l.epoch).Nanoseconds(), End: r.done.Sub(l.epoch).Nanoseconds()})
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) drain() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		curHi = max(curHi, v.hi)
	}
	covered += curHi - curLo
	return time.Duration(parent.End - parent.Start - covered)
}

// writeSpans stores the run's spans as JSON for offline inspection.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
