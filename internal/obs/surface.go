package obs

import (
	"net/http"
	"strings"
	"time"
)

// Surface is one component's HTTP observability surface, built the same
// way for every daemon: /metrics (the component's own series plus the
// process identity, flight-ring and Go runtime series), /healthz,
// /trace/<id> and /postmortem/<trace>, next to whatever routes the
// component adds. Packages describe their surface; Mux serves it.
type Surface struct {
	Component string           // build_info and postmortem component label
	Now       func() time.Time // the component's clock (nil = wall time)
	Start     time.Time        // when the component started, on that clock
	// Recorder backs /trace/ and /postmortem/ and reports its overflow
	// on /metrics. Mux gives a nil Recorder a fresh, empty one.
	Recorder *FlightRecorder
	Metrics  func() []Metric // the component's own series (nil = none)
	Healthy  func() error    // the /healthz check (nil = always healthy)
	// Routes are the component's own endpoints (/report, /slo,
	// /fleet/...), mounted beside the shared four.
	Routes map[string]http.Handler
	// Text, when set, is appended verbatim to the /metrics body: obsd's
	// fleet_ aggregates are re-exposed as scraped, not rebuilt as Metrics.
	Text func(*strings.Builder)
}

// Exposition renders the full /metrics body: the component's own
// series, then ProcessMetrics, the recorder's RingMetrics,
// RuntimeMetrics and Text.
func (s Surface) Exposition() string {
	var ms []Metric
	if s.Metrics != nil {
		ms = s.Metrics()
	}
	ms = append(ms, ProcessMetrics(s.Component, s.Now, s.Start)...)
	if s.Recorder != nil {
		ms = append(ms, s.Recorder.RingMetrics()...)
	}
	var b strings.Builder
	WriteMetrics(&b, append(ms, RuntimeMetrics()...))
	if s.Text != nil {
		s.Text(&b)
	}
	return b.String()
}

// Mux returns a fresh mux serving the surface.
func (s Surface) Mux() *http.ServeMux {
	if s.Recorder == nil {
		s.Recorder = NewFlightRecorder(0)
	}
	now := s.Now
	if now == nil {
		now = time.Now
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(s.Exposition())) //nolint:errcheck // client went away
	})
	mux.Handle("/healthz", HealthzHandler(s.Healthy))
	mux.Handle("/trace/", TraceJSONHandler(s.Recorder))
	mux.Handle("/postmortem/", PostmortemHandler(s.Recorder, s.Component, now))
	for path, h := range s.Routes {
		mux.Handle(path, h)
	}
	return mux
}
