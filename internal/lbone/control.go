package lbone

// Fleet control-endpoint registration. Every daemon in the storage stack
// (depots, registry replicas, maintenance shards, monitors) serves an
// HTTP control mux — /metrics, /healthz, /trace/, /postmortem/ — but
// nothing in the stack knew where those muxes lived: operators had to
// hand-maintain scrape lists. The L-Bone already solves discovery for
// depots (paper §2.2), so the same registry carries a second, additive
// table of control endpoints. Daemons self-register the address of their
// obs.Surface here and the obsd aggregator (internal/obsfleet) discovers
// every scrape target through the registry it already knows.
//
// The wire verbs are additive (CREGISTER/CHEARTBEAT/CDEREGISTER/CLIST)
// so old clients and replicas interoperate unchanged; the 6-token DEPOT
// record format is untouched.

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"time"

	"repro/internal/wire"
)

// Control-plane protocol verbs.
const (
	opCRegister   = "CREGISTER"
	opCHeartbeat  = "CHEARTBEAT"
	opCDeregister = "CDEREGISTER"
	opCList       = "CLIST"
)

// ControlInfo is one registered control endpoint: where a daemon's
// observability mux answers HTTP.
type ControlInfo struct {
	Addr      string    // host:port of the daemon's control HTTP mux
	Component string    // daemon kind: "ibp-depot", "lbone-server", "maintaind", ...
	Name      string    // instance name, e.g. "UTK1" or "maintaind-0"
	LastSeen  time.Time // last registration or heartbeat
}

// RegisterControl inserts or refreshes a control-endpoint entry, keyed by
// its HTTP address. Liveness follows the same TTL as depot entries.
func (r *Registry) RegisterControl(ci ControlInfo) {
	ci.LastSeen = r.clock.Now()
	r.controls[ci.Addr] = ci
}

// HeartbeatControl refreshes liveness for a control endpoint; it reports
// whether the endpoint was registered.
func (r *Registry) HeartbeatControl(addr string) bool {
	ci, ok := r.controls[addr]
	if !ok {
		return false
	}
	ci.LastSeen = r.clock.Now()
	r.controls[addr] = ci
	return true
}

// DeregisterControl removes a control endpoint.
func (r *Registry) DeregisterControl(addr string) { delete(r.controls, addr) }

// Controls returns the live control endpoints, ordered by address for
// determinism.
func (r *Registry) Controls() []ControlInfo {
	var out []ControlInfo
	for _, ci := range r.controls {
		if r.ttl > 0 && r.clock.Now().Sub(ci.LastSeen) > r.ttl {
			continue
		}
		out = append(out, ci)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Addr < out[j-1].Addr; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ControlLen reports the number of registered control endpoints (live or
// not).
func (r *Registry) ControlLen() int { return len(r.controls) }

// ControlTokens renders ci as the wire tokens of a CTRL line (without the
// leading "CTRL" tag): addr component name.
func ControlTokens(ci ControlInfo) []string {
	return []string{ci.Addr, ci.Component, ci.Name}
}

// ParseControlTokens is the inverse of ControlTokens.
func ParseControlTokens(toks []string) (ControlInfo, error) {
	if len(toks) != 3 {
		return ControlInfo{}, fmt.Errorf("lbone: control record wants 3 tokens, got %d", len(toks))
	}
	return ControlInfo{Addr: toks[0], Component: toks[1], Name: toks[2]}, nil
}

// CREGISTER <addr> <component> <name>
func (s *Server) handleCRegister(conn *wire.Conn, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "CREGISTER wants 3 fields, got %d", len(args))
	}
	ci, err := ParseControlTokens(args)
	if err != nil {
		return conn.WriteErr(wire.CodeBadRequest, "%v", err)
	}
	s.mu.Lock()
	s.reg.RegisterControl(ci)
	s.mu.Unlock()
	return conn.WriteOK()
}

func (s *Server) handleCHeartbeat(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "CHEARTBEAT wants <addr>")
	}
	s.mu.Lock()
	ok := s.reg.HeartbeatControl(args[0])
	s.mu.Unlock()
	if !ok {
		return conn.WriteErr(wire.CodeNotFound, "control endpoint %s not registered", args[0])
	}
	return conn.WriteOK()
}

func (s *Server) handleCDeregister(conn *wire.Conn, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "CDEREGISTER wants <addr>")
	}
	s.mu.Lock()
	s.reg.DeregisterControl(args[0])
	s.mu.Unlock()
	return conn.WriteOK()
}

// CLIST → OK <n>, then n "CTRL addr component name" lines.
func (s *Server) handleCList(conn *wire.Conn) error {
	s.mu.Lock()
	res := s.reg.Controls()
	s.mu.Unlock()
	if err := conn.WriteOK(wire.Itoa(int64(len(res)))); err != nil {
		return err
	}
	for _, ci := range res {
		if err := conn.WriteLine(append([]string{"CTRL"}, ControlTokens(ci)...)...); err != nil {
			return err
		}
	}
	return nil
}

// RegisterControl announces a daemon's control HTTP endpoint to the
// L-Bone so the fleet aggregator can discover it. Like depot writes it
// broadcasts to every replica and succeeds on a majority.
func (c *Client) RegisterControl(ci ControlInfo) error {
	return c.broadcastMajority(func(conn *wire.Conn) error {
		err := conn.WriteLine(append([]string{opCRegister}, ControlTokens(ci)...)...)
		if err != nil {
			return err
		}
		_, err = conn.ReadStatus()
		return err
	})
}

// HeartbeatControl refreshes a control endpoint's liveness window.
func (c *Client) HeartbeatControl(addr string) error {
	return c.broadcastMajority(func(conn *wire.Conn) error {
		if err := conn.WriteLine(opCHeartbeat, addr); err != nil {
			return err
		}
		_, err := conn.ReadStatus()
		return err
	})
}

// DeregisterControl removes a control endpoint from the registry.
func (c *Client) DeregisterControl(addr string) error {
	return c.broadcastMajority(func(conn *wire.Conn) error {
		if err := conn.WriteLine(opCDeregister, addr); err != nil {
			return err
		}
		_, err := conn.ReadStatus()
		return err
	})
}

// AdvertisedControlAddr rewrites a listener's address into one peers can
// dial: a wildcard or unspecified host becomes the machine's hostname,
// falling back to the loopback address. Daemons pass their metrics
// listener's Addr() through this before self-registering.
func AdvertisedControlAddr(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen
	}
	if ip := net.ParseIP(host); host != "" && (ip == nil || !ip.IsUnspecified()) {
		return listen
	}
	if hn, err := os.Hostname(); err == nil && hn != "" {
		return net.JoinHostPort(hn, port)
	}
	return net.JoinHostPort("127.0.0.1", port)
}

// ControlAnnounceInterval is how often AnnounceControl re-registers an
// endpoint: one cadence for every daemon, well inside the registry's
// default 5m TTL, so a live daemon never drops out of CLIST between
// announcements whatever its own work cadence is.
const ControlAnnounceInterval = time.Minute

// AnnounceControl registers ci and re-announces it every
// ControlAnnounceInterval until stop closes, then deregisters. Failures
// are logged and retried on the next tick, never fatal: observability
// registration must not take a serving daemon down. Blocks; callers run
// it in a goroutine.
func (c *Client) AnnounceControl(ci ControlInfo, logger *slog.Logger, stop <-chan struct{}) {
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	announce := func() {
		if err := c.RegisterControl(ci); err != nil {
			logger.Warn("control registration failed", "addr", ci.Addr, "err", err)
		}
	}
	announce()
	for {
		select {
		case <-stop:
			if err := c.DeregisterControl(ci.Addr); err != nil {
				logger.Warn("control deregistration failed", "addr", ci.Addr, "err", err)
			}
			return
		case <-c.clock.After(ControlAnnounceInterval):
			// Re-register rather than heartbeat: idempotent, and it heals
			// replicas that missed the original write or restarted since.
			announce()
		}
	}
}

// ListControls returns every live control endpoint. Reads fail over to
// the first replica that answers; because registrations broadcast to a
// majority, any single live replica may miss a minority of entries —
// the aggregator re-lists every sweep, so a briefly-stale view heals on
// the next interval.
func (c *Client) ListControls() ([]ControlInfo, error) {
	var out []ControlInfo
	err := c.eachUntil(func(conn *wire.Conn) error {
		if err := conn.WriteLine(opCList); err != nil {
			return err
		}
		toks, err := conn.ReadStatus()
		if err != nil {
			return err
		}
		if len(toks) != 1 {
			return errShortResponse
		}
		n, err := wire.ParseInt("count", toks[0])
		if err != nil {
			return err
		}
		out = make([]ControlInfo, 0, n)
		for i := int64(0); i < n; i++ {
			line, err := conn.ReadLine()
			if err != nil {
				return err
			}
			if len(line) != 4 || line[0] != "CTRL" {
				return fmt.Errorf("lbone: malformed control line %v", line)
			}
			ci, err := ParseControlTokens(line[1:])
			if err != nil {
				return err
			}
			out = append(out, ci)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
