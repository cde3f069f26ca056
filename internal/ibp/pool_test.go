package ibp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/wire"
)

func TestConnPoolGetPut(t *testing.T) {
	p := newConnPool()
	if p.get("a:1") != nil {
		t.Fatal("empty pool should return nil")
	}
	var parked []*wire.Conn
	for i := 0; i < maxIdlePerDepot; i++ {
		c := fakeConn(t)
		parked = append(parked, c)
		p.put("a:1", c)
	}
	overflow := fakeConn(t)
	p.put("a:1", overflow) // over the cap: closed, not parked
	if err := overflow.WriteLine("PING"); err == nil {
		t.Fatal("overflow conn was not closed")
	}
	for i := len(parked) - 1; i >= 0; i-- {
		if got := p.get("a:1"); got != parked[i] {
			t.Fatalf("get %d: pool should be LIFO", len(parked)-1-i)
		}
	}
	if p.get("a:1") != nil {
		t.Fatal("pool should be drained")
	}
	// Different addresses are separate.
	p.put("b:1", fakeConn(t))
	if p.get("a:1") != nil {
		t.Fatal("addresses must not share pools")
	}
}

func TestConnPoolCloseAll(t *testing.T) {
	p := newConnPool()
	p.put("a:1", fakeConn(t))
	p.closeAll()
	if p.get("a:1") != nil {
		t.Fatal("closed pool should be empty")
	}
	// Parking after close just closes the conn.
	p.put("a:1", fakeConn(t))
	if p.get("a:1") != nil {
		t.Fatal("closed pool must not park conns")
	}
}

func TestConnPoolDropsOverAgedConns(t *testing.T) {
	p := newConnPool()
	now := time.Unix(1_000_000, 0)
	p.now = func() time.Time { return now }

	stale := fakeConn(t)
	p.put("a:1", stale)
	now = now.Add(maxIdleAge / 2)
	fresh := fakeConn(t)
	p.put("a:1", fresh)

	// Another 3/4 of the limit later the first conn is over the limit and
	// the second under it. LIFO pops fresh first; the stale one must be
	// dropped, not handed out.
	now = now.Add(maxIdleAge * 3 / 4)
	if got := p.get("a:1"); got != fresh {
		t.Fatal("fresh conn should be returned")
	}
	if got := p.get("a:1"); got != nil {
		t.Fatal("over-aged conn must be dropped, not reused")
	}
	// Dropped means closed: a write on the wrapped pipe now fails.
	if err := stale.WriteLine("PING"); err == nil {
		t.Fatal("dropped conn was not closed")
	}
}

func fakeConn(t *testing.T) *wire.Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return wire.NewConn(a)
}

func TestIsConnReuseError(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{os.ErrDeadlineExceeded, true},
		{&net.OpError{Op: "read", Err: errors.New("reset")}, true},
		// Wrapped connectivity errors classify the same.
		{fmt.Errorf("ibp: load: %w", io.EOF), true},
		{fmt.Errorf("ibp: dial x: %w", &net.OpError{Op: "dial", Err: errors.New("refused")}), true},
		// Remote protocol errors mean the depot answered; retrying the
		// same request would just repeat the answer (or worse, repeat a
		// non-idempotent side effect).
		{&wire.RemoteError{Code: wire.CodeNotFound}, false},
		{&wire.RemoteError{Code: wire.CodeExpired}, false},
		{&wire.RemoteError{Code: wire.CodeInternal}, false},
		{fmt.Errorf("op: %w", &wire.RemoteError{Code: wire.CodeBadRequest}), false},
		{errors.New("some app error"), false},
	}
	for _, c := range cases {
		if got := isConnReuseError(c.err); got != c.want {
			t.Fatalf("isConnReuseError(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestClientCloseWithoutPoolIsNoop closes a client that has parked
// nothing: there is nothing to release and nothing to fail.
func TestClientCloseWithoutPoolIsNoop(t *testing.T) {
	c := NewClient()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleRetryReportsDialError pins the error a pooled client reports
// when a depot dies while one of its connections sits in the pool: the
// reused connection is stale, the fresh redial is refused, and the
// operation must fail as Refused, exactly as it would on a first dial.
// Reporting the stale connection's EOF instead makes the health
// scoreboard count a crashed depot as a flaky network.
func TestStaleRetryReportsDialError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	crashed := make(chan struct{})
	go func() {
		defer close(crashed)
		raw, err := ln.Accept()
		if err != nil {
			return
		}
		conn := wire.NewConn(raw)
		if _, err := conn.ReadLine(); err == nil {
			conn.WriteLine("OK", "100", "0", "3600", "0")
		}
		// The depot crashes: its listener and every connection go away.
		ln.Close()
		raw.Close()
	}()

	c := NewClient()
	defer c.Close()
	if _, err := c.Status(addr); err != nil {
		t.Fatal(err)
	}
	<-crashed
	_, err = c.Status(addr)
	if got := health.Classify(err); got != health.Refused {
		t.Fatalf("status after the depot crashed: %v classified %v, want %v", err, got, health.Refused)
	}
}
