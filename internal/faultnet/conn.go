package faultnet

import (
	"net"
	"os"
	"sync"
	"time"
)

// shapedConn wraps a real loopback connection and charges simulated WAN
// time for everything that crosses it. It implements netx.VirtualDeadliner
// so client operation timeouts are enforced in simulated time.
//
// A connection may carry many request/response turns (pooled clients reuse
// it), so the depot and link conditions are looked up in the model at every
// charge: an outage, link change or corruption toggle scripted after the
// dial reaches the live connection at its next exchange.
type shapedConn struct {
	net.Conn
	model   *Model
	addr    string
	srcSite string

	mu        sync.Mutex
	vdeadline time.Time
	jitter    float64 // bandwidth factor, drawn per request turn
	lastWrite bool    // last shaped op was a write (next read pays an RTT)
	corrupted bool    // one byte already flipped in the current response
}

// SetVirtualDeadline implements netx.VirtualDeadliner.
func (c *shapedConn) SetVirtualDeadline(t time.Time) error {
	c.mu.Lock()
	c.vdeadline = t
	c.mu.Unlock()
	return nil
}

// charge advances simulated time for n transferred bytes (plus an optional
// RTT) under the model's current conditions, and enforces outages and the
// virtual deadline.
func (c *shapedConn) charge(n int, rtt bool) error {
	st, link, _ := c.model.conditions(c.srcSite, c.addr)
	c.mu.Lock()
	deadline, jitter := c.vdeadline, c.jitter
	c.mu.Unlock()
	mbps := link.Mbps * jitter
	if mbps <= 0 {
		mbps = 0.1
	}
	d := time.Duration(float64(n*8) / (mbps * 1e6) * float64(time.Second))
	if rtt {
		d += link.RTT
	}
	c.model.advanceClock(d)
	now := c.model.clock.Now()

	if !deadline.IsZero() && now.After(deadline) {
		return os.ErrDeadlineExceeded
	}
	// Mid-transfer failure: the depot or link went down while the bytes
	// were in flight.
	if !st.avail().UpAt(now) {
		return &net.OpError{Op: "read", Err: timeoutError{"depot failed mid-transfer"}}
	}
	if !link.avail().UpAt(now) {
		return &net.OpError{Op: "read", Err: timeoutError{"link failed mid-transfer"}}
	}
	return nil
}

// shapeChunk bounds how many bytes a single shaped Read or Write may move
// before simulated time is charged. Loopback TCP happily delivers a whole
// 50 KiB response in one syscall; charging it as one lump would commit the
// entire transfer's simulated cost atomically, letting a transfer sail
// past outage windows, virtual deadlines, and cancellation in one step.
// Chunking keeps mid-transfer events at packet-train granularity.
const shapeChunk = 4 << 10

// Read shapes inbound data: bandwidth delay per byte, one RTT when this
// read answers a preceding write (a request/response turn).
func (c *shapedConn) Read(p []byte) (int, error) {
	if len(p) > shapeChunk {
		p = p[:shapeChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		st, _, _ := c.model.conditions(c.srcSite, c.addr)
		c.mu.Lock()
		turn := c.lastWrite
		c.lastWrite = false
		// Corrupt only bulk chunks (≥256 bytes): protocol status lines are
		// short, so the flip deterministically lands in payload bytes —
		// modelling silent storage corruption rather than a framing error.
		// One byte per response: the next request rearms the flag.
		needCorrupt := st.CorruptReads && !c.corrupted && n >= 256
		if needCorrupt {
			c.corrupted = true
		}
		c.mu.Unlock()
		if needCorrupt {
			p[n/2] ^= 0x55
		}
		if cerr := c.charge(n, turn); cerr != nil {
			return n, cerr
		}
	}
	return n, err
}

// Write shapes outbound data, charging per chunk so large uploads can be
// interrupted mid-transfer. Unlike Read, Write must consume all of p, so
// it loops instead of truncating.
func (c *shapedConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		chunk := p
		if len(chunk) > shapeChunk {
			chunk = chunk[:shapeChunk]
		}
		n, err := c.Conn.Write(chunk)
		if n > 0 {
			c.mu.Lock()
			if !c.lastWrite {
				// A new request turn: fresh jitter, and its response may
				// be corrupted again.
				_, link, _ := c.model.conditions(c.srcSite, c.addr)
				c.jitter = c.model.drawJitter(link)
				c.corrupted = false
			}
			c.lastWrite = true
			c.mu.Unlock()
			total += n
			if cerr := c.charge(n, false); cerr != nil {
				return total, cerr
			}
		}
		if err != nil {
			return total, err
		}
		p = p[n:]
	}
	return total, nil
}
