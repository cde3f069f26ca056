package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanContextLifecycle(t *testing.T) {
	root := NewRootSpan()
	if !root.Valid() || !root.Sampled {
		t.Fatalf("root = %+v, want valid and sampled", root)
	}
	child := root.Child()
	if child.TraceID != root.TraceID || child.SpanID == root.SpanID || !child.Sampled {
		t.Fatalf("child = %+v from root %+v", child, root)
	}
	if (SpanContext{}).Valid() {
		t.Fatal("zero SpanContext must be invalid")
	}
}

func TestWireSpanTrailerRoundTrip(t *testing.T) {
	ws := WireSpan{
		SpanID:    "ab12cd34",
		Queue:     1500 * time.Nanosecond,
		Backend:   2 * time.Millisecond,
		Total:     3 * time.Millisecond,
		Bytes:     4096,
		Violation: true,
	}
	tok := ws.EncodeTrailer()
	if !strings.HasPrefix(tok, TrailerPrefix) || strings.Contains(tok, " ") {
		t.Fatalf("trailer %q must be one prefixed token", tok)
	}
	got, ok := ParseWireSpan(tok)
	if !ok || got != ws {
		t.Fatalf("round trip = %+v (ok=%v), want %+v", got, ok, ws)
	}
}

func TestParseWireSpanRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",                      // empty
		"nonsense",              // no prefix
		"ts=",                   // no parts
		"ts=a:1:2:3",            // too few parts
		"ts=a:1:2:3:4:5:6",      // too many parts
		"ts=a:x:2:3:4:0",        // non-numeric
		"ts=a:-1:2:3:4:0",       // negative duration
		TrailerPrefix + ":::::", // empty parts
	} {
		if ws, ok := ParseWireSpan(bad); ok {
			t.Errorf("ParseWireSpan(%q) = %+v, want rejection", bad, ws)
		}
	}
}

// TestRenderTraceTree checks the joined-timeline rendering: depth from
// parent links, time offsets from the earliest event, and the depot
// server-span sub-line.
func TestRenderTraceTree(t *testing.T) {
	col := NewCollector(16)
	t0 := time.Unix(1000, 0)
	root := NewRootSpan()
	extent := root.Child()
	op := extent.Child()

	col.Record(Event{
		Time: t0, Verb: "DOWNLOAD", Latency: 10 * time.Millisecond,
		Trace: root.TraceID, Span: root.SpanID, Outcome: "ok", Note: "f.xnd [0,64)",
	})
	col.Record(Event{
		Time: t0.Add(time.Millisecond), Verb: "EXTENT", Depot: "d:1", Bytes: 64,
		Latency: 8 * time.Millisecond, Outcome: "success",
		Trace: root.TraceID, Span: extent.SpanID, Parent: root.SpanID,
	})
	col.Record(Event{
		Time: t0.Add(2 * time.Millisecond), Verb: "LOAD", Depot: "d:1", Bytes: 64,
		Latency: 6 * time.Millisecond, Outcome: "success",
		Trace: root.TraceID, Span: op.SpanID, Parent: extent.SpanID,
		Server: &WireSpan{
			SpanID: "feedf00d", Queue: time.Microsecond,
			Backend: 2 * time.Microsecond, Total: 5 * time.Microsecond, Bytes: 64,
		},
	})
	// An event from some other trace must not leak in.
	col.Record(Event{Time: t0, Verb: "PROBE", Trace: "other", Span: "zz"})

	out := col.RenderTrace(root.TraceID)
	for _, want := range []string{
		"trace " + root.TraceID + " (3 events)",
		"+0s DOWNLOAD",
		"  EXTENT d:1", // depth 1
		"    LOAD d:1", // depth 2
		"└ depot span feedf00d: queue 1µs backend 2µs total 5µs (64B)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderTrace missing %q\n%s", want, out)
		}
	}
	if strings.Contains(out, "PROBE") {
		t.Errorf("foreign-trace event leaked into render:\n%s", out)
	}
	if !strings.Contains(col.RenderTrace("missing"), "no recorded events") {
		t.Error("unknown trace should render a placeholder")
	}
}

// FuzzParseWireSpan feeds arbitrary status-line tokens to the trailer
// parser, which reads bytes straight off a depot's status line. It must
// never panic, and every token it accepts must re-encode through
// EncodeTrailer to a token that parses back to the same span. The seed
// corpus lives in testdata/fuzz/FuzzParseWireSpan.
func FuzzParseWireSpan(f *testing.F) {
	f.Add(WireSpan{SpanID: "1a2b3c4d", Queue: 3, Backend: 4, Total: 9, Bytes: 512, Violation: true}.EncodeTrailer())
	f.Fuzz(func(t *testing.T, tok string) {
		ws, ok := ParseWireSpan(tok)
		if !ok {
			return
		}
		re := ws.EncodeTrailer()
		back, ok := ParseWireSpan(re)
		if !ok {
			t.Fatalf("accepted %q, but its re-encoding %q does not parse", tok, re)
		}
		if back != ws {
			t.Fatalf("%q parsed to %+v, re-encoded %q parsed to %+v", tok, ws, re, back)
		}
	})
}
