package transfer

import (
	"errors"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestHedgeEmitsObserverEvents: a hedged race where the backup wins must
// put three HEDGE events on the observer — launched, win, cancelled — all
// correlated to the caller's span.
func TestHedgeEmitsObserverEvents(t *testing.T) {
	col := obs.NewCollector(16)
	sc := obs.NewRootSpan()
	e := New(Config{Hedge: true, HedgeAfter: 10 * time.Millisecond, Observer: col})

	winner, _ := e.HedgeCtx(sc, [2]string{"slow:1", "fast:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-cancel
			return errors.New("cancelled")
		}
		return nil
	})
	if winner != 1 {
		t.Fatalf("winner = %d, want backup", winner)
	}

	byOutcome := map[string]obs.Event{}
	for _, ev := range col.Recent(0) {
		if ev.Verb != "HEDGE" || ev.Kind != obs.KindHedge {
			t.Errorf("unexpected verb/kind %q/%q: %+v", ev.Verb, ev.Kind, ev)
			continue
		}
		byOutcome[ev.Outcome] = ev
	}
	launched, ok := byOutcome["launched"]
	if !ok {
		t.Fatalf("no launched event: %v", byOutcome)
	}
	if launched.Depot != "fast:1" {
		t.Errorf("launched depot = %q, want the backup", launched.Depot)
	}
	win, ok := byOutcome["win"]
	if !ok || win.Depot != "fast:1" {
		t.Fatalf("win event = %+v (ok=%v), want fast:1", win, ok)
	}
	cancelled, ok := byOutcome["cancelled"]
	if !ok || cancelled.Depot != "slow:1" {
		t.Fatalf("cancelled event = %+v (ok=%v), want slow:1", cancelled, ok)
	}
	for outcome, ev := range byOutcome {
		if ev.Trace != sc.TraceID || ev.Parent != sc.SpanID || ev.Span == "" {
			t.Errorf("%s event not stamped with caller span: %+v", outcome, ev)
		}
	}
}

// TestHedgeNoEventsWithoutObserver: emit must be a no-op when no observer
// is configured (the engine always runs, traced or not).
func TestHedgeNoEventsWithoutObserver(t *testing.T) {
	e := New(Config{Hedge: true, HedgeAfter: 5 * time.Millisecond})
	winner, _ := e.HedgeCtx(obs.NewRootSpan(), [2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-cancel
			return errors.New("cancelled")
		}
		return nil
	})
	if winner != 1 {
		t.Fatalf("winner = %d", winner)
	}
}

// TestHedgeUntracedEventsUnstamped: with an observer but no sampled span,
// HEDGE events still flow (for aggregates) but carry no trace fields.
func TestHedgeUntracedEventsUnstamped(t *testing.T) {
	col := obs.NewCollector(16)
	e := New(Config{Hedge: true, HedgeAfter: 5 * time.Millisecond, Observer: col})
	winner, _ := e.Hedge([2]string{"a:1", "b:1"}, func(idx int, cancel <-chan struct{}) error {
		if idx == 0 {
			<-cancel
			return errors.New("cancelled")
		}
		return nil
	})
	if winner != 1 {
		t.Fatalf("winner = %d", winner)
	}
	evs := col.Recent(0)
	if len(evs) == 0 {
		t.Fatal("no HEDGE events recorded")
	}
	for _, ev := range evs {
		if ev.Trace != "" || ev.Span != "" || ev.Parent != "" {
			t.Errorf("untraced hedge event carries trace fields: %+v", ev)
		}
	}
}
