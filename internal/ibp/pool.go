package ibp

import (
	"errors"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/wire"
)

// The IBP wire protocol is request/response over a persistent connection,
// so every client reuses connections across operations instead of dialing
// per call: each depot keeps up to maxIdlePerDepot parked connections, and
// an operation that finds its parked connection stale retries once on a
// fresh dial (see Client.exchange).

// maxIdlePerDepot caps the parked connections per depot address. It
// matches xnd's default per-depot concurrency (-max-per-depot), so a
// download's parallel loads to one depot all find a warm connection.
const maxIdlePerDepot = 4

// maxIdleAge is how long a parked connection stays reusable. A depot
// restart leaves every pooled conn to it stale; without an age limit each
// subsequent operation would burn a round trip discovering that via the
// retry-on-reuse path.
const maxIdleAge = 90 * time.Second

// idleConn is a parked connection stamped with its park time.
type idleConn struct {
	conn   *wire.Conn
	parked time.Time
}

// connPool keeps idle framed connections per depot address.
type connPool struct {
	mu     sync.Mutex
	idle   map[string][]idleConn
	now    func() time.Time // wall clock; swappable in tests
	closed bool
}

func newConnPool() *connPool {
	return &connPool{idle: make(map[string][]idleConn), now: time.Now}
}

// get returns an idle connection to addr, or nil. Connections parked
// longer than maxIdleAge are dropped rather than returned: their peer has
// likely closed or restarted, and handing them out would force every
// caller through the stale-conn retry path.
func (p *connPool) get(addr string) *wire.Conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.idle[addr]
	cutoff := p.now().Add(-maxIdleAge)
	for len(conns) > 0 {
		ic := conns[len(conns)-1]
		conns = conns[:len(conns)-1]
		p.idle[addr] = conns
		if ic.parked.Before(cutoff) {
			ic.conn.Close()
			continue
		}
		return ic.conn
	}
	return nil
}

// put parks a healthy connection for reuse; overflow closes it.
func (p *connPool) put(addr string, conn *wire.Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle[addr]) >= maxIdlePerDepot {
		p.mu.Unlock()
		conn.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], idleConn{conn: conn, parked: p.now()})
	p.mu.Unlock()
}

// closeAll drops every idle connection.
func (p *connPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr, conns := range p.idle {
		for _, ic := range conns {
			ic.conn.Close()
		}
		delete(p.idle, addr)
	}
}

// Close releases the client's parked connections. Operations still work
// afterwards, but their connections are closed instead of parked.
func (c *Client) Close() error {
	c.pool.closeAll()
	return nil
}

// acquire returns a connection to addr — parked if one is available,
// freshly dialed otherwise — with the operation deadline applied.
func (c *Client) acquire(addr string) (*wire.Conn, bool, error) {
	if conn := c.pool.get(addr); conn != nil {
		if err := c.applyDeadline(conn); err == nil {
			return conn, true, nil
		}
		conn.Close()
	}
	conn, err := c.dialFresh(addr)
	return conn, false, err
}

// release parks conn for reuse after a clean exchange, or closes it after
// any error (the protocol state is then unknown).
func (c *Client) release(addr string, conn *wire.Conn, err error) {
	if err != nil {
		conn.Close()
		return
	}
	c.pool.put(addr, conn)
}

// isConnReuseError reports whether err plausibly came from a stale pooled
// connection (peer closed it while idle) and the operation is worth one
// retry on a fresh dial. Remote protocol errors are never retried.
func isConnReuseError(err error) bool {
	if err == nil || wire.IsRemoteAny(err) {
		return false
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed)
}
