package server

import (
	"strconv"

	"repro/internal/service"
	wiretext "repro/internal/wire/text"
)

// The converters below build the daemon's JSON bodies, whose types live in
// internal/wire/text so the client can decode them without importing the
// server.

// toDigestResponse converts a service digest to its wire form.
func toDigestResponse(d service.RangeDigest, elapsedUS int64) wiretext.DigestResponse {
	return wiretext.DigestResponse{
		Count:      d.Count,
		Sum:        strconv.FormatUint(d.Sum, 16),
		Generation: d.Generation,
		ElapsedUS:  elapsedUS,
	}
}

// toResponse converts a service result to its wire form.
func toResponse(res service.Result, elapsedUS int64) wiretext.QueryResponse {
	out := wiretext.QueryResponse{
		Records:       make([]wiretext.WireRecord, len(res.Records)),
		ShardsQueried: res.ShardsQueried,
		Complete:      res.Complete(),
		ElapsedUS:     elapsedUS,
		PagesRead:     res.PagesRead,
	}
	for i, r := range res.Records {
		out.Records[i] = wiretext.WireRecord{Point: r.Point, Payload: r.Payload}
	}
	if len(res.Unavailable) > 0 {
		out.Unavailable = make([]wiretext.WireInterval, len(res.Unavailable))
		for i, iv := range res.Unavailable {
			out.Unavailable[i] = wiretext.WireInterval{Lo: iv.Lo, Hi: iv.Hi}
		}
	}
	return out
}
