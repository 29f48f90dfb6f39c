// Package frontend is the server's transport layer: each Frontend owns one
// listening socket, its wire framing, and response delivery, and feeds parsed
// frames to a protocol-independent Core that owns admission, at-most-once
// dedupe, durability commit-before-ack, and execution on the batched
// pipeline.
//
// The split follows the paper's reading of RV/PP (receive/parse) as pipeline
// tasks rather than server plumbing: a frontend is exactly the RV/PP producer
// plus the SD (send) consumer for one protocol, and everything between those
// tasks is shared. The UDP binary protocol and the RESP2 TCP protocol are two
// implementations over one core instead of two servers.
//
// Contract (DESIGN.md §5.15): for every Frame a frontend hands to
// Core.Admit/Submit, the core calls exactly one terminal delivery on the
// frame's Responder — DeliverBatch (success), Busy (shed) or Fail (poisoned
// or durability-dropped) — followed by exactly one Release. The RESP
// frontend's reader waits for that Release before it reads, parses or
// answers anything more on the connection; the core relies on DeliverBatch
// running only after the durability tier committed the frame's records
// (commit-before-ack).
package frontend

import (
	"net"
	"time"

	"repro/internal/proto"
)

// Frame is one parsed request travelling between a frontend and the core: a
// batch of queries plus the identity the core needs for dedupe and durability.
// Frames are pooled by their owning frontend; the core must not retain one
// past Release.
type Frame struct {
	// Queries is the parsed query batch. It aliases frontend-owned buffers
	// and is valid until Release.
	Queries []proto.Query
	// ReqID is the client's retry-stable request ID (0 = none; the frame is
	// then not deduplicated).
	ReqID uint64
	// AKey is the client's memoized address key for the reply cache. Empty
	// disables dedupe for the frame (stream transports get at-most-once from
	// the connection itself).
	AKey string
	// Tracked is set by the core when the frame holds an in-flight marker in
	// the reply cache (Admit outcome); the core clears it on finish/abort.
	Tracked bool
	// Start is the admission timestamp when the core has a slow-query log
	// attached (zero otherwise).
	Start time.Time
	// ParseNanos is the frontend's measured RV/PP cost, feeding the pipeline's
	// adaptation profile when the core asked for measurement.
	ParseNanos int64
	// Units holds the frame's encoded reply: set by the core from Encode (or
	// the reply cache) before DeliverBatch, or by a frontend's own Busy/Fail.
	// The reply cache retains them, so they are freshly allocated and never
	// pooled.
	Units [][]byte
	// R is the responder that delivers this frame's outcome — always the
	// frame's owning frontend.
	R Responder
	// Ctx is the frontend's private per-frame state.
	Ctx any
}

// reset clears the core-facing fields before a frame returns to its pool.
// Frontend-private state (Ctx, R) survives across reuses.
func (f *Frame) reset() {
	f.Queries = nil
	f.ReqID = 0
	f.AKey = ""
	f.Tracked = false
	f.Start = time.Time{}
	f.ParseNanos = 0
	f.Units = nil
}

// Responder is the delivery half of a frontend: how the core answers a frame.
// Exactly one of DeliverBatch (with the frame in its slice), Busy or Fail
// runs per frame, then exactly one Release. All methods must be safe for
// concurrent use across frames: the core answers from concurrent batch
// completions, and from the frontend's own reader goroutines for replays,
// sheds and query-less frames.
type Responder interface {
	// Encode renders resps into the frame's wire units. The returned slices
	// are freshly allocated: the core's reply cache and WAL REPLY records
	// retain them past Release.
	Encode(f *Frame, resps []proto.Response) [][]byte
	// DeliverBatch sends the frames' encoded replies (f.Units): one
	// completed pipeline batch's frames, or a single frame answered outside
	// the pipeline (a replay, a query-less frame), in as few kernel
	// crossings as the transport allows — sendmmsg for UDP, the connection's
	// writer for RESP. The core has cached each reply by then: a send that
	// fails is answered by replaying it to the client's retry.
	DeliverBatch(fs []*Frame)
	// Busy answers a shed frame with per-query busy errors so the client
	// backs off instead of timing out. Never cached by the core.
	Busy(f *Frame)
	// Fail answers a frame whose execution produced no usable response set
	// (poisoned batch, failed WAL commit). Datagram transports send nothing —
	// the client times out and retries; stream transports must emit
	// per-command errors to keep the connection's ordered reply stream in
	// sync.
	Fail(f *Frame, reason string)
	// Release returns the frame and its buffers to the frontend. Runs exactly
	// once per frame, after its terminal delivery (and after the core is done
	// reading Queries — WAL records and the slow-query log alias them).
	Release(f *Frame)
}

// Core is the protocol-independent server surface a frontend feeds.
// *dido.Server implements it.
type Core interface {
	// Admit runs pre-parse admission on a frame (reply-cache dedupe via
	// AKey/ReqID, then the in-flight token gate). It returns true when the
	// caller should parse and Submit the frame; false when the core already
	// answered and released it (replayed, duplicate-dropped, or shed).
	Admit(f *Frame) bool
	// Submit executes an admitted, parsed frame on the pipeline. The core
	// releases the frame when done.
	Submit(f *Frame)
	// Cancel aborts an admitted frame whose payload failed to parse: the core
	// counts the malformed drop, returns the admission slot, and releases the
	// frame. No delivery runs — datagram-only (a stream frontend must turn
	// parse errors into in-band error replies instead).
	Cancel(f *Frame)
	// Malformed counts a frame dropped before admission (bad header).
	Malformed()
	// Draining reports whether the core is shutting down; frontends exit
	// their read loops on it.
	Draining() bool
}

// FrameSource is the lifecycle half of a frontend. The owning server calls
// Listen, then Run on a dedicated goroutine; on shutdown it calls Interrupt
// on every frontend (stopping frame production), drains the core, and only
// then Shutdown (tearing sockets down so late responses still go out).
type FrameSource interface {
	// Listen binds the transport; Addr is valid afterwards.
	Listen(addr string) error
	// Run reads, parses and submits frames until Interrupt or a fatal socket
	// error. Blocks.
	Run(core Core) error
	// Interrupt stops frame production and returns only once no further
	// Admit/Submit call can happen (read loops exited). The transport stays
	// up for response delivery.
	Interrupt()
	// Shutdown tears the transport down. Called after the core drained.
	Shutdown()
	// Addr is the bound address (nil before Listen).
	Addr() net.Addr
}

// Stats is a per-frontend counter snapshot for the observability surface.
type Stats struct {
	// Frames counts frames submitted to the core; Malformed counts framing
	// and parse rejections at this frontend.
	Frames, Malformed uint64
	// BytesIn and BytesOut count transport payload bytes.
	BytesIn, BytesOut uint64
	// ConnsAccepted and ConnsShed count stream connections admitted and
	// rejected over the connection budget; ConnsActive is the current count.
	// All zero for datagram transports.
	ConnsAccepted, ConnsShed uint64
	ConnsActive              int
	// SendErrs counts failed reply writes (datagram sends that errored,
	// stream flushes that tore their connection down). The affected frames
	// were dropped; datagram clients recover by retrying.
	SendErrs uint64
}

// StatsSource is implemented by every frontend so the server can render
// per-frontend metrics with a frontend="<name>" label.
type StatsSource interface {
	Name() string
	FrontendStats() Stats
}

// Frontend is a full transport implementation: lifecycle, delivery and stats.
type Frontend interface {
	FrameSource
	Responder
	StatsSource
}
