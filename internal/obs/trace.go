package obs

// Distributed tracing vocabulary shared by every layer of the stack: the
// tools mint a root span per operation, core derives one span per extent,
// the transfer engine tags hedge attempts, the IBP client tags each wire
// exchange, and the depot returns a server-side span summary on the status
// line. Everything correlates by trace ID; the collector joins it back into
// one cross-layer timeline (RenderTrace).

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SpanContext identifies one span within a trace. The zero value means "not
// traced"; only Sampled contexts propagate over the wire.
type SpanContext struct {
	TraceID string // 16 hex chars, shared by every span of one tool operation
	SpanID  string // 8 hex chars, unique per span
	Sampled bool   // propagate to depots and record events when true
}

// Valid reports whether the context names a real trace.
func (sc SpanContext) Valid() bool { return sc.TraceID != "" && sc.SpanID != "" }

// Child derives a new span under this one, preserving trace ID and
// sampling.
func (sc SpanContext) Child() SpanContext {
	return SpanContext{TraceID: sc.TraceID, SpanID: NewSpanID(), Sampled: sc.Sampled}
}

// NewRootSpan mints a fresh sampled trace with its root span.
func NewRootSpan() SpanContext {
	return SpanContext{TraceID: randHex(8), SpanID: NewSpanID(), Sampled: true}
}

// NewSpanID mints a span identifier.
func NewSpanID() string { return randHex(4) }

func randHex(nBytes int) string {
	b := make([]byte, nBytes)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable anyway; degrade to a fixed
		// marker rather than panicking inside instrumentation.
		return strings.Repeat("0", nBytes*2)
	}
	return hex.EncodeToString(b)
}

// TrailerPrefix marks the server-span summary token a traced depot appends
// to its status line.
const TrailerPrefix = "ts="

// WireSpan is the depot-side span summary returned to a traced client on
// the status line: how long the request waited in the depot's accept queue,
// how long the storage backend took, the exchange total, payload bytes, and
// whether a capability violation was observed.
type WireSpan struct {
	SpanID    string        `json:"span"`
	Queue     time.Duration `json:"queue_ns"`
	Backend   time.Duration `json:"backend_ns"`
	Total     time.Duration `json:"total_ns"`
	Bytes     int64         `json:"bytes"`
	Violation bool          `json:"violation,omitempty"`
}

// EncodeTrailer renders the span as a single status-line token
// ("ts=<span>:<queue-ns>:<backend-ns>:<total-ns>:<bytes>:<violation>").
func (s WireSpan) EncodeTrailer() string {
	v := 0
	if s.Violation {
		v = 1
	}
	return fmt.Sprintf("%s%s:%d:%d:%d:%d:%d", TrailerPrefix, s.SpanID,
		s.Queue.Nanoseconds(), s.Backend.Nanoseconds(), s.Total.Nanoseconds(), s.Bytes, v)
}

// ParseWireSpan reverses EncodeTrailer. It reports false on anything that
// is not a well-formed trailer token.
func ParseWireSpan(tok string) (WireSpan, bool) {
	if !strings.HasPrefix(tok, TrailerPrefix) {
		return WireSpan{}, false
	}
	parts := strings.Split(strings.TrimPrefix(tok, TrailerPrefix), ":")
	if len(parts) != 6 || parts[0] == "" {
		return WireSpan{}, false
	}
	ns := make([]int64, 5)
	for i, p := range parts[1:] {
		v, err := strconv.ParseInt(p, 10, 64)
		if err != nil || v < 0 {
			return WireSpan{}, false
		}
		ns[i] = v
	}
	return WireSpan{
		SpanID:    parts[0],
		Queue:     time.Duration(ns[0]),
		Backend:   time.Duration(ns[1]),
		Total:     time.Duration(ns[2]),
		Bytes:     ns[3],
		Violation: ns[4] != 0,
	}, true
}

// TraceJSONHandler serves /trace/<traceID> from a flight recorder as a
// JSON array of retained events: 400 on a malformed ID, 404 when nothing
// is retained for it. Every daemon serves its trace this way — a depot's
// server spans are KindSpan events in its recorder — and obsd joins the
// arrays into one timeline without converting between shapes.
func TraceJSONHandler(fr *FlightRecorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strings.TrimPrefix(r.URL.Path, "/trace/")
		if !ValidTraceID(id) {
			http.Error(w, "want /trace/<traceID> (hex)", http.StatusBadRequest)
			return
		}
		entries := fr.ForTrace(id)
		if len(entries) == 0 {
			http.Error(w, "no spans retained for trace "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		json.NewEncoder(w).Encode(entries) //nolint:errcheck // client went away
	})
}

// TraceEvents returns the retained events belonging to traceID, in
// recording order.
func (c *Collector) TraceEvents(traceID string) []Event {
	return withTrace(c.Recent(0), traceID)
}

// withTrace returns the events of evs recorded under traceID, in order.
func withTrace(evs []Event, traceID string) []Event {
	var out []Event
	for _, e := range evs {
		if e.Trace == traceID {
			out = append(out, e)
		}
	}
	return out
}

// RenderTrace joins every retained event of one trace into a cross-layer
// timeline: tool root, core extents, transfer hedge attempts, IBP client
// operations, and — when the depot cooperated — the depot's own server-side
// span, indented by span parentage and timed relative to the trace start.
func (c *Collector) RenderTrace(traceID string) string {
	evs := c.TraceEvents(traceID)
	if len(evs) == 0 {
		return fmt.Sprintf("trace %s: no recorded events\n", traceID)
	}
	// Depth by walking parent links; events whose parent was not retained
	// render at the depth of the nearest known ancestor (or the root).
	bySpan := make(map[string]Event, len(evs))
	for _, e := range evs {
		bySpan[e.Span] = e
	}
	depth := func(e Event) int {
		d := 0
		for p := e.Parent; p != ""; {
			pe, ok := bySpan[p]
			if !ok {
				break
			}
			d++
			p = pe.Parent
		}
		return d
	}
	t0 := evs[0].Time
	for _, e := range evs[1:] {
		if e.Time.Before(t0) {
			t0 = e.Time
		}
	}
	sorted := append([]Event(nil), evs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if !sorted[i].Time.Equal(sorted[j].Time) {
			return sorted[i].Time.Before(sorted[j].Time)
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s (%d events)\n", traceID, len(sorted))
	for _, e := range sorted {
		indent := strings.Repeat("  ", depth(e))
		fmt.Fprintf(&b, "%9s %s%s", "+"+fmtSec(e.Time.Sub(t0).Seconds()), indent, e.Verb)
		if e.Depot != "" {
			fmt.Fprintf(&b, " %s", e.Depot)
		}
		if e.Bytes > 0 {
			fmt.Fprintf(&b, " %dB", e.Bytes)
		}
		fmt.Fprintf(&b, " %s %s", fmtSec(e.Latency.Seconds()), e.Outcome)
		if e.Note != "" {
			fmt.Fprintf(&b, " %s", e.Note)
		}
		if e.Err != "" {
			fmt.Fprintf(&b, "  %s", e.Err)
		}
		b.WriteByte('\n')
		if ss := e.Server; ss != nil {
			fmt.Fprintf(&b, "%9s %s  └ depot span %s: queue %s backend %s total %s",
				"", indent, ss.SpanID, ss.Queue, ss.Backend, ss.Total)
			if ss.Bytes > 0 {
				fmt.Fprintf(&b, " (%dB)", ss.Bytes)
			}
			if ss.Violation {
				b.WriteString(" VIOLATION")
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
