package obsfleet

// Cross-daemon trace assembly. One tool operation leaves fragments of
// its trace all over the fleet: the client's flight recorder holds the
// root span and per-extent events, each depot's flight recorder holds the
// server-side span of every exchange, the maintenance daemons hold
// repair spans, and a failed operation leaves a postmortem bundle. All of
// them are obs.Events. The assembler fans the trace ID out to every
// member's /trace/<id> (and /postmortem/<trace> as a fallback when the
// live ring already aged the events out) and stitches the answers into
// one time-ordered timeline.
//
// Partial fleets are flagged, never hidden: a member that cannot be
// reached is a detected failure (freestore taxonomy), not an empty
// trace, so the response says which members were silent and carries
// partial=true instead of pretending the timeline is complete.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strings"

	"repro/internal/obs"
)

// TimelineSpan is one record of the joined timeline: the member's own
// obs.Event, unchanged, tagged with who served it and how.
type TimelineSpan struct {
	Member    string `json:"member"`    // control address that served it
	Component string `json:"component"` // "ibp-depot", "maintaind", "xnd", ...
	Source    string `json:"source"`    // "trace" or "postmortem"
	obs.Event
}

// MemberTraceStatus reports how one member answered the fan-out.
type MemberTraceStatus struct {
	Addr      string `json:"addr"`
	Component string `json:"component"`
	Status    string `json:"status"` // "ok", "no-data", "unreachable"
	Spans     int    `json:"spans"`
	Err       string `json:"err,omitempty"`
}

// FleetTrace is the /fleet/trace/<id> document.
type FleetTrace struct {
	Trace   string              `json:"trace"`
	Partial bool                `json:"partial"` // some member could not be asked
	Members []MemberTraceStatus `json:"members"`
	Spans   []TimelineSpan      `json:"spans"`
}

// AssembleTrace fans traceID out to the current member set and joins
// the answers. It never errors: an unreachable fleet yields an empty,
// partial document — the HTTP handler decides the status code.
func (a *Aggregator) AssembleTrace(traceID string) FleetTrace {
	ft := FleetTrace{Trace: traceID, Spans: []TimelineSpan{}}
	for _, m := range a.Snapshot() {
		st := MemberTraceStatus{Addr: m.info.Addr, Component: m.info.Component}
		spans, err := a.memberTrace(m, traceID)
		switch {
		case err == nil && len(spans) > 0:
			st.Status = "ok"
			st.Spans = len(spans)
			ft.Spans = append(ft.Spans, spans...)
		case err == nil:
			st.Status = "no-data"
		default:
			st.Status = "unreachable"
			st.Err = err.Error()
			ft.Partial = true
		}
		ft.Members = append(ft.Members, st)
	}
	sort.SliceStable(ft.Spans, func(i, j int) bool {
		return ft.Spans[i].Time.Before(ft.Spans[j].Time)
	})
	return ft
}

// memberTrace asks one member for a trace: /trace/<id> first, then the
// postmortem bundle when the live ring had nothing (events age out of
// a small ring long before the incident's bundle does). A 404 from
// both is "no spans" (nil error); transport failures are unreachable.
func (a *Aggregator) memberTrace(m *member, traceID string) ([]TimelineSpan, error) {
	source, evs := "trace", []obs.Event(nil)
	live, err := getJSON[[]obs.Event](a, m.info.Addr, "/trace/"+traceID)
	var herr *httpStatusError
	switch {
	case err == nil:
		evs = *live
	case !errors.As(err, &herr):
		return nil, err // transport failure: member unreachable
	case herr.status != http.StatusNotFound:
		// 400s mean the member rejected the ID; the handler validated it
		// already, so treat anything else as that member misbehaving.
		return nil, err
	default:
		// Live ring empty; try the postmortem bundle.
		bundle, err := getJSON[obs.Bundle](a, m.info.Addr, "/postmortem/"+traceID)
		if err != nil {
			if errors.As(err, &herr) {
				return nil, nil // no bundle either: genuinely no data
			}
			return nil, err
		}
		source, evs = "postmortem", bundle.Entries
	}
	out := make([]TimelineSpan, 0, len(evs))
	for _, e := range evs {
		out = append(out, TimelineSpan{Member: m.info.Addr, Component: m.info.Component, Source: source, Event: e})
	}
	return out, nil
}

// FleetTraceHandler serves /fleet/trace/<id>: 400 on a malformed trace
// ID, 404 when the whole (reachable) fleet has nothing, 200 otherwise —
// with partial=true when silent members mean the timeline may be
// incomplete.
func (a *Aggregator) FleetTraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		id := strings.TrimPrefix(r.URL.Path, "/fleet/trace/")
		if !obs.ValidTraceID(id) {
			http.Error(w, "want /fleet/trace/<traceID> (hex)", http.StatusBadRequest)
			return
		}
		ft := a.AssembleTrace(id)
		if len(ft.Spans) == 0 && !ft.Partial {
			// Every member answered and none had the trace: unknown ID.
			http.Error(w, "no spans retained anywhere for trace "+id, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ft) //nolint:errcheck // client went away
	})
}
