package health

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/vclock"
)

// TestOnTransitionHook walks a breaker through its full lifecycle and
// checks every state change reaches the hook, in order, with the
// scoreboard's own clock timestamps.
func TestOnTransitionHook(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	type tr struct {
		addr, from, to string
		at             time.Time
	}
	var got []tr
	s := New(Config{
		FailureThreshold: 3,
		BaseBackoff:      10 * time.Second,
		MaxBackoff:       time.Minute,
		Clock:            clk,
		Seed:             1,
		OnTransition: func(addr string, from, to State, at time.Time) {
			got = append(got, tr{addr, from.String(), to.String(), at})
		},
	})
	addr := "a:1"

	// closed -> open after three consecutive connectivity failures.
	for i := 0; i < 3; i++ {
		s.Report(addr, Timeout, 0)
	}
	// open -> half-open when the backoff elapses and a probe is allowed.
	clk.Advance(13 * time.Second)
	if err := s.Allow(addr); err != nil {
		t.Fatalf("probe refused: %v", err)
	}
	// half-open -> closed on the successful probe.
	s.Report(addr, Success, 5*time.Millisecond)

	want := []struct{ from, to string }{
		{"closed", "open"},
		{"open", "half-open"},
		{"half-open", "closed"},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d transitions %+v, want %d", len(got), got, len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.addr != addr || g.from != w.from || g.to != w.to {
			t.Errorf("transition %d = %s %s->%s, want %s->%s", i, g.addr, g.from, g.to, w.from, w.to)
		}
		if g.at.IsZero() {
			t.Errorf("transition %d has zero timestamp", i)
		}
	}

	// A failed probe must re-open (half-open -> open).
	for i := 0; i < 3; i++ {
		s.Report(addr, Timeout, 0)
	}
	clk.Advance(time.Minute + 10*time.Second)
	if err := s.Allow(addr); err != nil {
		t.Fatalf("second probe refused: %v", err)
	}
	s.Report(addr, Refused, 0)
	last := got[len(got)-1]
	if last.from != "half-open" || last.to != "open" {
		t.Errorf("failed probe transition = %s->%s, want half-open->open", last.from, last.to)
	}
}

// TestOnTransitionFeedsFlightRecorder wires the hook straight to a flight
// recorder — the production configuration — and checks the breaker story
// is retained as KindBreaker entries.
func TestOnTransitionFeedsFlightRecorder(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	rec := obs.NewFlightRecorder(32)
	s := New(Config{
		FailureThreshold: 3,
		BaseBackoff:      10 * time.Second,
		Clock:            clk,
		Seed:             1,
		OnTransition: func(addr string, from, to State, at time.Time) {
			rec.BreakerTransition(addr, from.String(), to.String(), at)
		},
	})
	for i := 0; i < 3; i++ {
		s.Report("d1:6714", Timeout, 0)
	}
	entries := rec.Recent(0)
	if len(entries) != 1 {
		t.Fatalf("recorder retained %d entries, want 1: %+v", len(entries), entries)
	}
	e := entries[0]
	if e.Kind != obs.KindBreaker || e.Depot != "d1:6714" {
		t.Errorf("entry = %+v, want breaker entry for d1:6714", e)
	}
	if want := "breaker closed -> open"; e.Note != want {
		t.Errorf("entry msg = %q, want %q", e.Note, want)
	}
}
