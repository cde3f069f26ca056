package depot

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/ibp"
	"repro/internal/obs"
	"repro/internal/wire"
)

// oldDepotServer mimics a depot that predates the TRACE verb: it answers
// every request line with the next canned response, keeping the
// connection open (the real dispatch loop keeps unknown verbs alive too).
func oldDepotServer(t *testing.T, responses ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		next := 0
		for {
			raw, err := ln.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				defer raw.Close()
				conn := wire.NewConn(raw)
				for {
					if _, err := conn.ReadLine(); err != nil {
						return
					}
					resp := "OK"
					if next < len(responses) {
						resp = responses[next]
						next++
					}
					if err := conn.WriteLine(strings.Fields(resp)...); err != nil {
						return
					}
				}
			}(raw)
		}
	}()
	return ln.Addr().String()
}

// TestTraceOldDepotInterop is the backward-compatibility regression test:
// a traced client against a depot that predates the TRACE verb. The depot
// rejects TRACE with ERR UNSUPPORTED, the operation proceeds untraced on
// the same connection, the rejection is cached, and the next operation
// must not send TRACE at all.
func TestTraceOldDepotInterop(t *testing.T) {
	// If the client re-sent TRACE on the second operation it would consume
	// the second STATUS response as the TRACE ack and the final bare "OK"
	// would fail STATUS parsing — so two clean statuses prove both the
	// fallback and the cache.
	addr := oldDepotServer(t,
		"ERR UNSUPPORTED unknown operation TRACE",
		"OK 100 0 3600 0",
		"OK 100 0 3600 0",
	)
	root := obs.NewRootSpan()
	col := obs.NewCollector(16)
	c := ibp.NewClient(ibp.WithObserver(col)).WithSpan(root)
	defer c.Close()

	if _, err := c.Status(addr); err != nil {
		t.Fatalf("first status against old depot: %v", err)
	}
	if _, err := c.Status(addr); err != nil {
		t.Fatalf("second status (TRACE must be skipped after the cached rejection): %v", err)
	}

	evs := col.Recent(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	for i, e := range evs {
		// Client-side correlation still works without depot support...
		if e.Trace != root.TraceID || e.Span == "" || e.Parent != root.SpanID {
			t.Errorf("event %d not stamped: %+v", i, e)
		}
		// ...but there is no server span to fold in.
		if e.Server != nil {
			t.Errorf("event %d has a server span from an old depot: %+v", i, e.Server)
		}
	}
}

// TestTraceUntracedClientNewDepot is the other interop direction: a client
// that never sends TRACE (an "old client") against a depot that supports
// it. The wire exchange must be the classic protocol — no trailer on
// status lines, full data round-trip intact.
func TestTraceUntracedClientNewDepot(t *testing.T) {
	d, err := Serve("127.0.0.1:0", Config{
		Secret:   []byte("interop-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	c := ibp.NewClient()
	defer c.Close()
	caps, err := c.Allocate(d.Addr(), 256, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	payload := bytes.Repeat([]byte{0xA5}, 256)
	if _, err := c.Store(caps.Write, payload); err != nil {
		t.Fatalf("store: %v", err)
	}
	got, err := c.Load(caps.Read, 0, 256)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch: got %d bytes", len(got))
	}
}

// TestTraceEndToEndServerSpans drives a traced client against a real depot
// and checks the whole correlation chain: the client op event carries the
// depot's span summary (queue wait, backend time, bytes), and the depot
// retains matching spans queryable by trace ID.
func TestTraceEndToEndServerSpans(t *testing.T) {
	rec := obs.NewFlightRecorder(0)
	d, err := Serve("127.0.0.1:0", Config{
		Secret:   []byte("e2e-test"),
		Capacity: 1 << 20,
		Recorder: rec,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	root := obs.NewRootSpan()
	col := obs.NewCollector(16)
	c := ibp.NewClient(ibp.WithObserver(col)).WithSpan(root)
	defer c.Close()

	caps, err := c.Allocate(d.Addr(), 512, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatalf("allocate: %v", err)
	}
	payload := bytes.Repeat([]byte{0x5A}, 512)
	if _, err := c.Store(caps.Write, payload); err != nil {
		t.Fatalf("store: %v", err)
	}
	if _, err := c.Load(caps.Read, 0, 512); err != nil {
		t.Fatalf("load: %v", err)
	}

	// Client side: every event stamped, every event carrying a server span.
	evs := col.Recent(0)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	var loadEv *obs.Event
	for i := range evs {
		e := &evs[i]
		if e.Trace != root.TraceID || e.Span == "" || e.Parent != root.SpanID {
			t.Errorf("event %s not stamped: %+v", e.Verb, e)
		}
		if e.Server == nil {
			t.Errorf("event %s missing server span", e.Verb)
			continue
		}
		if e.Server.Total <= 0 {
			t.Errorf("event %s server total = %v, want > 0", e.Verb, e.Server.Total)
		}
		if e.Verb == ibp.OpLoad {
			loadEv = e
		}
	}
	if loadEv == nil {
		t.Fatal("no LOAD event recorded")
	}
	if loadEv.Server.Bytes != 512 {
		t.Errorf("LOAD server span bytes = %d, want 512", loadEv.Server.Bytes)
	}

	// Depot side: spans retained under the trace ID, parented to the
	// client op spans, measuring queue wait and backend time.
	spans := rec.ForTrace(root.TraceID)
	if len(spans) != 3 {
		t.Fatalf("depot retained %d spans, want 3: %+v", len(spans), spans)
	}
	parents := map[string]string{}
	for _, e := range evs {
		parents[e.Verb] = e.Span
	}
	for _, sp := range spans {
		if sp.Kind != obs.KindSpan || sp.Server == nil {
			t.Fatalf("depot retained %+v, want a KindSpan event carrying its server span", sp)
		}
		if sp.Trace != root.TraceID {
			t.Errorf("span %s trace = %q, want %q", sp.Server.SpanID, sp.Trace, root.TraceID)
		}
		if want := parents[sp.Verb]; sp.Parent != want {
			t.Errorf("%s span parent = %q, want client op span %q", sp.Verb, sp.Parent, want)
		}
		if ss := sp.Server; ss.Queue < 0 || ss.Backend < 0 || ss.Total <= 0 {
			t.Errorf("%s span timings = queue %v backend %v total %v", sp.Verb, ss.Queue, ss.Backend, ss.Total)
		}
		if sp.Server.Violation || sp.Err != "" {
			t.Errorf("%s span unexpectedly failed: %+v", sp.Verb, sp)
		}
	}
	if loadSpan := spans[len(spans)-1]; loadSpan.Verb != ibp.OpLoad || loadSpan.Server.SpanID != loadEv.Server.SpanID {
		t.Errorf("last depot span = %+v, want the LOAD matching client-held span %s", loadSpan, loadEv.Server.SpanID)
	}
}

// TestTraceRejectsUnservableIDs pins that the depot refuses trace context
// it could never serve back: /trace/<id> accepts only obs.ValidTraceID, so
// a TRACE carrying any other ID (or a non-hex parent span) would cost ring
// memory and log lines for spans nobody can read. The connection stays
// usable and the next operation runs untraced.
func TestTraceRejectsUnservableIDs(t *testing.T) {
	d, err := Serve("127.0.0.1:0", Config{
		Secret:   []byte("trace-reject-test"),
		Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer d.Close()

	for _, tc := range []struct {
		name, trace, parent string
		wantOK              bool
	}{
		{"client-minted ids", "0123456789abcdef", "89abcdef", true},
		{"10KiB non-hex trace", strings.Repeat("Z", 10<<10), "89abcdef", false},
		{"overlong hex trace", strings.Repeat("a", 65), "89abcdef", false},
		{"uppercase trace", "0123456789ABCDEF", "89abcdef", false},
		{"non-hex parent", "0123456789abcdef", "not-hex!", false},
		{"empty-looking parent", "0123456789abcdef", "-", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := net.Dial("tcp", d.Addr())
			if err != nil {
				t.Fatal(err)
			}
			conn := wire.NewConn(raw)
			defer conn.Close()
			if err := conn.WriteLine(ibp.OpTrace, tc.trace, tc.parent, "1"); err != nil {
				t.Fatal(err)
			}
			_, err = conn.ReadStatus()
			var rerr *wire.RemoteError
			switch {
			case tc.wantOK && err != nil:
				t.Fatalf("TRACE with valid ids: %v", err)
			case !tc.wantOK && (!errors.As(err, &rerr) || rerr.Code != wire.CodeBadRequest):
				t.Fatalf("TRACE reply = %v, want ERR %s", err, wire.CodeBadRequest)
			}
			// The connection survives the rejection; the next op is untraced.
			conn.CaptureStatusTrailer(obs.TrailerPrefix)
			if err := conn.WriteLine(ibp.OpStatus); err != nil {
				t.Fatal(err)
			}
			if _, err := conn.ReadStatus(); err != nil {
				t.Fatalf("STATUS after TRACE: %v", err)
			}
			if got := conn.StatusTrailer() != ""; got != tc.wantOK {
				t.Errorf("STATUS carried a trailer = %v, want %v", got, tc.wantOK)
			}
		})
	}
}
