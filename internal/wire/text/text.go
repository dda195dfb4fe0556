// Package text is the daemon's text codec: the query-string forms of
// points and curve intervals, and the JSON request and response bodies,
// that the HTTP/JSON endpoints, the client, the cluster router, and the
// bench tool all speak. It is the one place the text wire forms are
// defined — internal/wire holds the binary equivalents.
package text

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/wire"
)

// MaxScanIntervals bounds the interval count a single scan request may
// carry, in either transport. Re-exported from the binary protocol so the
// text and binary limits can never drift.
const MaxScanIntervals = wire.MaxScanIntervals

// ParsePoint parses "3,17,…" into d coordinates — the /query corner wire
// form.
func ParsePoint(v string, d int) ([]uint32, error) {
	if v == "" {
		return nil, errors.New("missing")
	}
	parts := strings.Split(v, ",")
	if len(parts) != d {
		return nil, fmt.Errorf("%d coordinates, universe has %d dimensions", len(parts), d)
	}
	p := make([]uint32, d)
	for i, part := range parts {
		x, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("coordinate %d: %w", i+1, err)
		}
		p[i] = uint32(x)
	}
	return p, nil
}

// FormatPoint renders a point in the /query corner wire form — the inverse
// of ParsePoint.
func FormatPoint(p []uint32) string {
	var sb strings.Builder
	for i, c := range p {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(uint64(c), 10))
	}
	return sb.String()
}

// ParseIntervals parses the /scan wire form "lo-hi,lo-hi,…" (each half-open
// [lo, hi)) into intervals, enforcing the MaxScanIntervals bound.
func ParseIntervals(v string) ([]query.Interval, error) {
	if v == "" {
		return nil, errors.New("missing")
	}
	parts := strings.Split(v, ",")
	if len(parts) > MaxScanIntervals {
		return nil, fmt.Errorf("%d intervals exceed the limit %d", len(parts), MaxScanIntervals)
	}
	ivs := make([]query.Interval, len(parts))
	for i, part := range parts {
		lo, hi, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("interval %d: %q is not lo-hi", i, part)
		}
		a, err := strconv.ParseUint(lo, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("interval %d lo: %w", i, err)
		}
		b, err := strconv.ParseUint(hi, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("interval %d hi: %w", i, err)
		}
		ivs[i] = query.Interval{Lo: a, Hi: b}
	}
	return ivs, nil
}

// FormatIntervals renders intervals in the /scan wire form — the inverse of
// ParseIntervals.
func FormatIntervals(ivs []query.Interval) string {
	var sb strings.Builder
	for i, iv := range ivs {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(strconv.FormatUint(iv.Lo, 10))
		sb.WriteByte('-')
		sb.WriteString(strconv.FormatUint(iv.Hi, 10))
	}
	return sb.String()
}
