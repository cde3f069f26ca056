package ibp

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// vdRecordConn wraps a net.Conn with a netx.VirtualDeadliner that records
// every virtual deadline it is handed — the observable side of
// applyDeadline routing through the client clock.
type vdRecordConn struct {
	net.Conn
	mu        sync.Mutex
	deadlines []time.Time
}

func (c *vdRecordConn) SetVirtualDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadlines = append(c.deadlines, t)
	return nil
}

func (c *vdRecordConn) virtualDeadlines() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.deadlines...)
}

// statusPipeDialer serves canned STATUS responses over an in-memory pipe
// and returns the recording conns it handed out.
func statusPipeDialer(t *testing.T) (netx.Dialer, func() []*vdRecordConn) {
	t.Helper()
	var mu sync.Mutex
	var conns []*vdRecordConn
	d := netx.DialerFunc(func(network, addr string, timeout time.Duration) (net.Conn, error) {
		client, server := net.Pipe()
		go func() {
			sc := wire.NewConn(server)
			defer sc.Close()
			for {
				toks, err := sc.ReadLine()
				if err != nil {
					return
				}
				if len(toks) == 0 || toks[0] != OpStatus {
					sc.WriteErr(wire.CodeBadRequest, "unexpected %v", toks)
					return
				}
				if err := sc.WriteOK("100", "0", "3600", "0"); err != nil {
					return
				}
			}
		}()
		vc := &vdRecordConn{Conn: client}
		mu.Lock()
		conns = append(conns, vc)
		mu.Unlock()
		return vc, nil
	})
	return d, func() []*vdRecordConn {
		mu.Lock()
		defer mu.Unlock()
		return append([]*vdRecordConn(nil), conns...)
	}
}

// TestApplyDeadlineUsesClientClock is the regression test for the pooled
// deadline clock bug: refreshing the deadline on a reused connection must
// go through the injected clock (and the VirtualDeadliner path), not the
// wall clock. On the old code the second operation reused the pooled conn
// without ever setting a new virtual deadline, so WithClock was silently
// ignored exactly when it mattered.
func TestApplyDeadlineUsesClientClock(t *testing.T) {
	base := time.Date(2002, time.April, 15, 0, 0, 0, 0, time.UTC)
	ck := vclock.NewVirtual(base)
	dialer, dialed := statusPipeDialer(t)
	c := NewClient(
		WithDialer(dialer),
		WithClock(ck),
		WithOpTimeout(30*time.Second),
	)
	defer c.Close()

	if _, err := c.Status("depot:1"); err != nil {
		t.Fatalf("first status: %v", err)
	}
	ck.Advance(5 * time.Minute)
	if _, err := c.Status("depot:1"); err != nil {
		t.Fatalf("second status: %v", err)
	}

	conns := dialed()
	if len(conns) != 1 {
		t.Fatalf("dialed %d conns, want 1 (second op must reuse the pool)", len(conns))
	}
	ds := conns[0].virtualDeadlines()
	if len(ds) != 2 {
		t.Fatalf("got %d virtual deadlines, want 2 (dial + pooled refresh): %v", len(ds), ds)
	}
	if want := base.Add(30 * time.Second); !ds[0].Equal(want) {
		t.Fatalf("dial-time deadline = %v, want %v", ds[0], want)
	}
	if want := base.Add(5*time.Minute + 30*time.Second); !ds[1].Equal(want) {
		t.Fatalf("pooled-refresh deadline = %v, want %v (client clock + op timeout)", ds[1], want)
	}
}

// TestTraceEventsEmitted checks the observer hook: one event per
// operation, carrying verb, depot, bytes, outcome, and the pool-reuse
// flag.
func TestTraceEventsEmitted(t *testing.T) {
	addr := scriptServer(t,
		"OK 100 0 3600 0",
		"OK 100 0 3600 0",
	)
	col := obs.NewCollector(16)
	c := NewClient(WithObserver(col))
	defer c.Close()

	if _, err := c.Status(addr); err != nil {
		t.Fatalf("status 1: %v", err)
	}
	if _, err := c.Status(addr); err != nil {
		t.Fatalf("status 2: %v", err)
	}
	evs := col.Recent(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2: %+v", len(evs), evs)
	}
	for _, e := range evs {
		if e.Verb != OpStatus || e.Depot != addr || e.Outcome != "success" {
			t.Fatalf("bad event: %+v", e)
		}
	}
	if evs[0].Reused || !evs[1].Reused {
		t.Fatalf("reuse flags = %v,%v; want false,true", evs[0].Reused, evs[1].Reused)
	}
}

// TestTraceEventBytesAndErrors checks byte crediting on success and error
// capture on failure.
func TestTraceEventBytesAndErrors(t *testing.T) {
	payload := strings.Repeat("x", 64)
	addr := scriptServer(t,
		"OK 64 64",                       // STORE response: wrote 64, new length 64
		"ERR "+wire.CodeNotFound+" gone", // LOAD response
	)
	col := obs.NewCollector(16)
	c := NewClient(WithObserver(col))
	read, writes := testCaps(addr)

	if _, err := c.Store(writes[0], []byte(payload)); err != nil {
		t.Fatalf("store: %v", err)
	}
	if _, err := c.Load(read, 0, 64); err == nil {
		t.Fatal("load should fail")
	}
	evs := col.Recent(0)
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Verb != OpStore || evs[0].Bytes != 64 {
		t.Fatalf("store event = %+v, want 64 bytes", evs[0])
	}
	if evs[1].Verb != OpLoad || evs[1].OK() || evs[1].Bytes != 0 {
		t.Fatalf("load event = %+v, want failed with 0 bytes", evs[1])
	}
	if evs[1].Outcome != "protocol-error" {
		t.Fatalf("load outcome = %q, want protocol-error", evs[1].Outcome)
	}
}
