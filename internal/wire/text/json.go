package text

// The JSON bodies of the daemon's HTTP endpoints. Server and client both
// marshal these shapes; routers forwarding member answers reuse them.

// WireRecord is one stored record on the wire.
type WireRecord struct {
	Point   []uint32 `json:"point"`
	Payload uint64   `json:"payload"`
}

// WireInterval is one half-open curve-index interval [Lo, Hi) on the wire.
type WireInterval struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
}

// QueryResponse is the body of a successful /query response.
type QueryResponse struct {
	// Records holds the readable records inside the box, in curve order.
	Records []WireRecord `json:"records"`
	// Unavailable lists the curve intervals no shard could serve (sorted,
	// disjoint, merged). Empty means the answer is complete.
	Unavailable []WireInterval `json:"unavailable,omitempty"`
	// ShardsQueried counts the shards the query fanned out to.
	ShardsQueried int `json:"shards_queried"`
	// Complete mirrors len(Unavailable) == 0 for clients that do not want
	// to reason about intervals.
	Complete bool `json:"complete"`
	// ElapsedUS is the server-side service time in microseconds, admission
	// queueing excluded.
	ElapsedUS int64 `json:"elapsed_us"`
	// PagesRead counts distinct leaf pages the query touched, dark pages
	// included — the paper's clustering cost made observable per request.
	PagesRead int64 `json:"pages_read"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// WireInfo is the body of GET /wireinfo: the daemon's advertised binary
// protocol listener, if any. Daemons not serving the binary protocol answer
// 404, and clients fall back to JSON.
type WireInfo struct {
	// Addr is the "host:port" of the binary wire listener.
	Addr string `json:"addr"`
	// Compress reports that the listener honors per-request compression
	// (wire.FlagCompress): deflated response frames for clients that ask.
	// Clients must not send the request flags byte to a daemon that did
	// not advertise it.
	Compress bool `json:"compress,omitempty"`
	// Write reports that the daemon accepts writes — only durable (-data)
	// daemons do. Any other daemon answers a write frame, like a JSON
	// write, with a read-only error.
	Write bool `json:"write,omitempty"`
}

// WriteRequest is the body of POST /put and POST /delete: one record,
// routed to the shard owning its curve position.
type WriteRequest struct {
	Point   []uint32 `json:"point"`
	Payload uint64   `json:"payload"`
}

// WriteResponse is the body of a successful /put, /delete or /flush
// response. A put or delete is acknowledged only after the owning shard's
// WAL has synced it. A standalone daemon answers Acked=1, Required=1; a
// router reports its replica fan-out — how many replicas applied the
// write, the quorum it waited for, and how many known-dead replicas were
// recorded as missed for anti-entropy to repair.
type WriteResponse struct {
	OK       bool `json:"ok"`
	Acked    int  `json:"acked,omitempty"`
	Required int  `json:"required,omitempty"`
	Missed   int  `json:"missed,omitempty"`
}

// DigestResponse is the body of GET /digest: the anti-entropy range
// summary. Sum is rendered as a hex string because JSON numbers cannot
// carry a full uint64 exactly.
type DigestResponse struct {
	Count      uint64 `json:"count"`
	Sum        string `json:"sum"`
	Generation uint64 `json:"generation"`
	ElapsedUS  int64  `json:"elapsed_us"`
}
