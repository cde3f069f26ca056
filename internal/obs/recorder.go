package obs

// The flight recorder: a bounded per-process ring retaining the recent
// past across every signal source — log records, IBP op events, hedge
// events, depot server spans, breaker-state transitions, forecast-error
// samples — in one time-ordered stream keyed by trace ID. While everything
// is healthy the ring just rotates; when a transfer fails, a tool exits
// non-zero, or a depot handler panics, the retained window is cut into a
// postmortem bundle (see postmortem.go) that tells the story of the
// failure without anyone having had to watch it happen.

import (
	"sync"
	"time"

	"repro/internal/stats"
)

// DefaultRecorderSize is the event capacity used when NewFlightRecorder is
// given a non-positive size.
const DefaultRecorderSize = 512

// FlightRecorder retains the last N events of every kind. Safe for
// concurrent use; it implements Observer so it can tee with a Collector on
// the IBP event stream, and the slog tee handler feeds it log records.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    stats.Ring[Event] // overwrites count as obs_ring_dropped_total{ring="flight"}
	seq     uint64
	bundles map[string]Bundle // last written bundle per trace, for /postmortem
	order   []string          // bundle insertion order, oldest first
}

// maxStoredBundles bounds the retained postmortem bundles per process.
const maxStoredBundles = 16

// NewFlightRecorder builds a recorder keeping the last size events.
func NewFlightRecorder(size int) *FlightRecorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	return &FlightRecorder{
		ring:    stats.NewRing[Event](size),
		bundles: make(map[string]Bundle),
	}
}

// Record implements Observer: it stamps the next sequence number, defaults
// an empty Kind to KindEvent, and retains the event as is — a depot-returned
// server span rides along in Event.Server.
func (fr *FlightRecorder) Record(e Event) {
	if e.Kind == "" {
		e.Kind = KindEvent
	}
	fr.mu.Lock()
	fr.seq++
	e.Seq = fr.seq
	fr.ring.Add(e)
	fr.mu.Unlock()
}

// Dropped reports how many events the ring has overwritten — how much of
// the recent past a postmortem bundle can no longer tell.
func (fr *FlightRecorder) Dropped() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.ring.Dropped()
}

// RingMetrics exposes the recorder's overflow counter, labeled ring=flight
// to sit beside the Collector's ring=events series on the same scrape.
func (fr *FlightRecorder) RingMetrics() []Metric {
	return []Metric{{
		Name: "obs_ring_dropped_total",
		Help: "Entries overwritten before aging out, per bounded ring.",
		Type: "counter", Value: float64(fr.Dropped()),
		Labels: []Label{{"ring", "flight"}},
	}}
}

// BreakerTransition retains one health-scoreboard state change. The health
// package calls this with its lock held, so it must stay allocation-light
// and must not call back into the scoreboard.
func (fr *FlightRecorder) BreakerTransition(addr, from, to string, at time.Time) {
	fr.Record(Event{
		Time: at, Kind: KindBreaker, Depot: addr,
		Note: "breaker " + from + " -> " + to,
	})
}

// Recent returns up to n of the most recent events, oldest first. n <= 0
// returns everything retained.
func (fr *FlightRecorder) Recent(n int) []Event {
	fr.mu.Lock()
	evs := fr.ring.Items()
	fr.mu.Unlock()
	return lastN(evs, n)
}

// ForTrace returns the retained events recorded under traceID, oldest
// first. Untraced events (daemon-level logs, breaker transitions) are
// excluded; bundle construction folds those back in separately.
func (fr *FlightRecorder) ForTrace(traceID string) []Event {
	return withTrace(fr.Recent(0), traceID)
}

// Total reports how many events have ever been retained.
func (fr *FlightRecorder) Total() uint64 {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.seq
}

// Tee fans one event stream out to several observers; nils are skipped.
// Used to feed the same IBP op stream to the trace collector, the flight
// recorder, and the SLO engine's adapter at once.
func Tee(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	return teeObserver(live)
}

type teeObserver []Observer

// Record implements Observer.
func (t teeObserver) Record(e Event) {
	for _, o := range t {
		o.Record(e)
	}
}
