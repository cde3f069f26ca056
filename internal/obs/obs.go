// Package obs is the observability layer of the stack: one trace record
// (Event) for client operations, depot spans, logs and every other signal,
// a ring buffer of recent events, and per-depot/per-verb aggregates. The
// paper's evaluation hinges on knowing which depot served which extent, how
// fast, and what failed (§3); this package is where that visibility
// accumulates at runtime instead of being reconstructed from logs.
//
// The ibp.Client emits one Event per operation through an Observer (see
// ibp.WithObserver); Collector is the standard sink. Everything here is
// allocation-light and lock-cheap enough to stay enabled in production:
// recording an event is one mutex acquisition and a store into a
// preallocated ring slot.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/stats"
)

// Event is the stack's one trace record: an IBP operation as seen from the
// client, a depot's server-side span, a hedge decision, a log record, a
// breaker transition, a forecast sample or an alert transition, told apart
// by Kind. The collector, the flight recorder, postmortem bundles, every
// daemon's /trace/<id> and obsd's trace join all carry it unchanged; its
// JSON encoding is their shared line format.
type Event struct {
	Seq     uint64        `json:"seq"`                  // recorder-assigned sequence number (1-based)
	Time    time.Time     `json:"time"`                 // operation start, on the recording process's clock
	Kind    string        `json:"kind"`                 // KindEvent, KindSpan, ... (FlightRecorder.Record defaults "" to KindEvent)
	Trace   string        `json:"trace,omitempty"`      // trace ID shared across layers ("" when untraced)
	Depot   string        `json:"depot,omitempty"`      // depot address host:port
	Verb    string        `json:"verb,omitempty"`       // IBP verb (ALLOCATE, STORE, LOAD, ...)
	Level   string        `json:"level,omitempty"`      // log level, for KindLog
	Note    string        `json:"msg,omitempty"`        // free-form detail (extent range, hedge role, log message, ...)
	Outcome string        `json:"outcome,omitempty"`    // "success", "timeout", "refused", "net-error", "protocol-error", "circuit-open", "cancelled"
	Err     string        `json:"err,omitempty"`        // error text ("" on success)
	Bytes   int64         `json:"bytes,omitempty"`      // payload bytes moved (0 when none or on failure)
	Latency time.Duration `json:"latency_ns,omitempty"` // wall time of the exchange
	Attrs   []string      `json:"attrs,omitempty"`      // extra key=value detail

	Span    string    `json:"span,omitempty"`    // this record's span ID
	Parent  string    `json:"parent,omitempty"`  // parent span ID ("" for the root)
	Reused  bool      `json:"reused,omitempty"`  // served on a pooled connection
	Retried bool      `json:"retried,omitempty"` // retried on a fresh dial after a stale pooled conn
	Batched bool      `json:"batched,omitempty"` // sub-operation of a pipelined BATCH exchange
	Server  *WireSpan `json:"server,omitempty"`  // depot-side span: returned in the ts= trailer, or measured by the depot itself
}

// Event kinds.
const (
	KindLog      = "log"      // a structured log record
	KindEvent    = "event"    // an IBP operation (or tool/extent step) seen by the client
	KindHedge    = "hedge"    // a transfer-engine hedge event
	KindSpan     = "span"     // a depot's own server-side span
	KindBreaker  = "breaker"  // a health-scoreboard state transition
	KindForecast = "forecast" // an NWS forecast-vs-measured sample
	KindAlert    = "alert"    // an SLO burn-rate alert transition
)

// OK reports whether the operation succeeded.
func (e Event) OK() bool { return e.Err == "" }

// Observer receives one event per IBP operation. Implementations must be
// safe for concurrent use; Record is called on the operation's goroutine.
type Observer interface {
	Record(Event)
}

// maxLatSamples bounds the per-(depot,verb) latency sample ring, so a
// long-lived client aggregates over a sliding window instead of growing
// without bound.
const maxLatSamples = 512

// aggKey identifies one aggregation cell.
type aggKey struct {
	Depot string
	Verb  string
}

// aggregate accumulates one (depot, verb) cell.
type aggregate struct {
	count   int64
	errors  int64
	bytes   int64
	reused  int64
	retried int64
	lat     stats.Ring[float64] // seconds, the last maxLatSamples
	// ex holds the most recent traced sample per latency bucket of
	// DefLatencyBounds (slot len(DefLatencyBounds) is +Inf), so the
	// exposition can point a histogram spike at an assembled trace.
	ex []Exemplar
}

func (a *aggregate) observe(e Event) {
	a.count++
	if !e.OK() {
		a.errors++
	}
	a.bytes += e.Bytes
	if e.Reused {
		a.reused++
	}
	if e.Retried {
		a.retried++
	}
	s := e.Latency.Seconds()
	a.lat.Add(s)
	if e.Trace != "" {
		if a.ex == nil {
			a.ex = make([]Exemplar, len(DefLatencyBounds)+1)
		}
		a.ex[BucketIndex(DefLatencyBounds, s)] = Exemplar{Trace: e.Trace, Value: s, Time: e.Time}
	}
}

// Collector is the standard Observer: a fixed-size ring of recent events
// plus per-depot/per-verb aggregates. Safe for concurrent use.
type Collector struct {
	mu   sync.Mutex
	ring stats.Ring[Event] // overwrites count as obs_ring_dropped_total{ring="events"}
	seq  uint64
	agg  map[aggKey]*aggregate
}

// DefaultRingSize is the recent-event capacity used when NewCollector is
// given a non-positive size.
const DefaultRingSize = 256

// NewCollector builds a collector keeping the last ringSize events.
func NewCollector(ringSize int) *Collector {
	if ringSize <= 0 {
		ringSize = DefaultRingSize
	}
	return &Collector{
		ring: stats.NewRing[Event](ringSize),
		agg:  make(map[aggKey]*aggregate),
	}
}

// Record implements Observer.
func (c *Collector) Record(e Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	e.Seq = c.seq
	c.ring.Add(e)
	k := aggKey{Depot: e.Depot, Verb: e.Verb}
	a := c.agg[k]
	if a == nil {
		a = &aggregate{lat: stats.NewRing[float64](maxLatSamples)}
		c.agg[k] = a
	}
	a.observe(e)
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (c *Collector) Recent(n int) []Event {
	c.mu.Lock()
	evs := c.ring.Items()
	c.mu.Unlock()
	return lastN(evs, n)
}

// lastN trims an oldest-first slice to its n newest elements; n <= 0
// keeps everything.
func lastN(evs []Event, n int) []Event {
	if n > 0 && n < len(evs) {
		return evs[len(evs)-n:]
	}
	return evs
}

// Total reports how many events have ever been recorded.
func (c *Collector) Total() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Dropped reports how many events the ring has overwritten before they
// aged out naturally — the collector's data-loss counter under load.
func (c *Collector) Dropped() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring.Dropped()
}

// AggRow is one (depot, verb) aggregate snapshot.
type AggRow struct {
	Depot   string
	Verb    string
	Count   int64
	Errors  int64
	Bytes   int64
	Reused  int64 // operations served on a pooled connection
	Retried int64 // operations that retried on a fresh dial
	Latency stats.Summary
}

// Snapshot returns the aggregates, sorted by depot then verb.
func (c *Collector) Snapshot() []AggRow {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]AggRow, 0, len(c.agg))
	for k, a := range c.agg {
		out = append(out, AggRow{
			Depot:   k.Depot,
			Verb:    k.Verb,
			Count:   a.count,
			Errors:  a.errors,
			Bytes:   a.bytes,
			Reused:  a.reused,
			Retried: a.retried,
			Latency: stats.Summarize(a.lat.Items()),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Depot != out[j].Depot {
			return out[i].Depot < out[j].Depot
		}
		return out[i].Verb < out[j].Verb
	})
	return out
}

// LatencyHistogram buckets the retained latency samples of one (depot,
// verb) cell. Pass "" for either field to pool across it.
func (c *Collector) LatencyHistogram(depot, verb string, buckets int) *stats.Histogram {
	c.mu.Lock()
	var xs []float64
	for k, a := range c.agg {
		if (depot == "" || k.Depot == depot) && (verb == "" || k.Verb == verb) {
			xs = append(xs, a.lat.Items()...)
		}
	}
	c.mu.Unlock()
	return stats.NewHistogram(xs, buckets)
}

// Render prints the aggregate table: one row per (depot, verb) with
// counts, error and reuse rates, bytes, and latency percentiles.
func (c *Collector) Render() string {
	rows := c.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %-9s %6s %5s %12s %6s %5s %9s %9s %9s\n",
		"DEPOT", "VERB", "N", "ERR", "BYTES", "REUSE", "RETRY", "p50", "p95", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %-9s %6d %5d %12d %6d %5d %9s %9s %9s\n",
			r.Depot, r.Verb, r.Count, r.Errors, r.Bytes, r.Reused, r.Retried,
			fmtSec(r.Latency.Median), fmtSec(r.Latency.P95), fmtSec(r.Latency.Max))
	}
	return b.String()
}

// RenderEvents prints up to n recent events, oldest first, one per line —
// the raw trace behind Render's aggregates.
func (c *Collector) RenderEvents(n int) string {
	evs := c.Recent(n)
	var b strings.Builder
	for _, e := range evs {
		flags := ""
		if e.Reused {
			flags += "+pooled"
		}
		if e.Retried {
			flags += "+retried"
		}
		fmt.Fprintf(&b, "#%-5d %s %-9s %-22s %8dB %9s %s%s",
			e.Seq, e.Time.UTC().Format("15:04:05.000"), e.Verb, e.Depot,
			e.Bytes, fmtSec(e.Latency.Seconds()), e.Outcome, flags)
		if e.Err != "" {
			fmt.Fprintf(&b, "  %s", e.Err)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func fmtSec(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}
