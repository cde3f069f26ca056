package lbone

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/netx"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// FuzzControlVerbs feeds arbitrary request lines to a registry server, one
// connection's worth per input. The server must not panic, and every
// CREGISTER it acks must come back from CLIST as the same ControlInfo
// unless a later acked CDEREGISTER removed it. Seeds live in
// testdata/fuzz/FuzzControlVerbs: the control verbs, quoted names, and
// over-long and empty tokens.
func FuzzControlVerbs(f *testing.F) {
	f.Fuzz(func(t *testing.T, input string) {
		s := &Server{
			reg:      NewRegistryClock(0, vclock.Real()),
			cfg:      ServerConfig{Clock: vclock.Real()},
			shutdown: make(chan struct{}),
		}
		serve := func() net.Conn {
			cli, srv := net.Pipe()
			go s.serveConn(srv)
			return cli
		}

		raw := serve()
		raw.SetDeadline(time.Now().Add(5 * time.Second))
		conn := wire.NewConn(raw)
		want := map[string]ControlInfo{}
		for _, line := range strings.SplitAfter(input, "\n") {
			line = strings.TrimSuffix(line, "\n")
			if _, err := raw.Write([]byte(line + "\n")); err != nil {
				break // the server hung up (QUIT, or a fatal write error)
			}
			if len(line)+1 > wire.MaxLineLen {
				break // rejected as too long; the server drops the connection
			}
			toks := strings.Fields(strings.TrimRight(line, "\r"))
			if len(toks) == 0 {
				continue // blank lines get no answer
			}
			status, err := conn.ReadStatus()
			if wire.IsRemoteAny(err) {
				continue
			}
			if err != nil {
				break
			}
			switch toks[0] {
			case opCRegister:
				want[toks[1]] = ControlInfo{Addr: toks[1], Component: toks[2], Name: toks[3]}
			case opCDeregister:
				delete(want, toks[1])
			case opList, opQuery, opCList:
				// Drain the listed records to stay in step.
				if len(status) != 1 {
					t.Fatalf("%s answered OK %v", toks[0], status)
				}
				n, err := wire.ParseInt("count", status[0])
				if err != nil {
					t.Fatalf("%s answered OK %v", toks[0], status)
				}
				for ; n > 0; n-- {
					if _, err := conn.ReadLine(); err != nil {
						t.Fatalf("%s listing cut short: %v", toks[0], err)
					}
				}
			}
		}
		raw.Close()

		c := NewClient("pipe", WithDialer(netx.DialerFunc(
			func(string, string, time.Duration) (net.Conn, error) { return serve(), nil })))
		got, err := c.ListControls()
		if err != nil {
			t.Fatalf("CLIST after %q: %v", input, err)
		}
		if len(got) != len(want) {
			t.Fatalf("CLIST returned %d entries, want %d: %+v", len(got), len(want), got)
		}
		for _, ci := range got {
			if ci != want[ci.Addr] {
				t.Fatalf("CLIST entry %+v, want %+v", ci, want[ci.Addr])
			}
		}
	})
}
