package depot

// Server-side spans. A traced client precedes an operation with
// "TRACE <traceid> <parentspan> <flags>" on the same connection; the depot
// acknowledges, measures the next operation (accept-queue wait, backend
// time, bytes, capability violations), returns the summary as a status-line
// trailer the client folds into its own event, and retains the same record
// as a KindSpan obs.Event in its flight recorder, served by /trace/<traceid>
// on the depot's obs.Surface.

import (
	"time"

	"repro/internal/obs"
	"repro/internal/wire"
)

// pendingTrace is trace context received via TRACE, waiting for the
// operation it describes.
type pendingTrace struct {
	traceID string
	parent  string
}

// connCtx is the per-connection handler context: the framed connection plus
// trace state. Handlers receive it in place of the bare *wire.Conn; the
// embedding keeps every framing method available unchanged.
type connCtx struct {
	*wire.Conn
	queueWait time.Duration // accept-queue wait, charged to the first traced op
	pending   *pendingTrace
	span      *obs.Event // active KindSpan record while a traced op runs
}

// recordSpan closes the connection's active span and retains it in the
// flight recorder.
func (d *Depot) recordSpan(conn *connCtx) {
	sp := conn.span
	conn.span = nil
	if sp.Server.Total == 0 {
		sp.Server.Total = d.clock.Since(sp.Time)
	}
	sp.Latency, sp.Bytes, sp.Outcome = sp.Server.Total, sp.Server.Bytes, "success"
	if sp.Err != "" {
		sp.Outcome = "protocol-error"
	}
	d.cfg.Recorder.Record(*sp)
}

// noteBackend charges time spent in the storage backend to the active span.
func (cc *connCtx) noteBackend(d time.Duration) {
	if cc.span != nil {
		cc.span.Server.Backend += d
	}
}

// noteBytes credits payload bytes to the active span.
func (cc *connCtx) noteBytes(n int64) {
	if cc.span != nil {
		cc.span.Server.Bytes += n
	}
}

// remoteErr reports a resolve failure to the client, recording the error
// code — and, for DENIED, the capability violation — on the active span.
func (cc *connCtx) remoteErr(rerr *wire.RemoteError) error {
	if cc.span != nil {
		cc.span.Err = rerr.Code
		if rerr.Code == wire.CodeDenied {
			cc.span.Server.Violation = true
		}
	}
	return cc.WriteErr(rerr.Code, "%s", rerr.Message)
}

// handleTrace accepts trace context for the next operation on this
// connection. Flags bit 0 is the sampling bit; an unsampled TRACE is
// acknowledged but records nothing.
func (d *Depot) handleTrace(conn *connCtx, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "TRACE wants <traceid> <parentspan> <flags>")
	}
	// Refuse IDs /trace/<id> could never serve back: retaining them would
	// spend ring slots on spans nobody can read.
	if !obs.ValidTraceID(args[0]) || !obs.ValidTraceID(args[1]) {
		return conn.WriteErr(wire.CodeBadRequest, "TRACE ids must be lowercase hex, at most 64 chars")
	}
	if args[2] != "0" {
		conn.pending = &pendingTrace{traceID: args[0], parent: args[1]}
	}
	return conn.WriteOK()
}
