package lbone

import (
	"testing"
	"time"

	"repro/internal/vclock"
	"repro/internal/wire"
)

func TestControlRegisterListRoundTrip(t *testing.T) {
	_, c := startServer(t, ServerConfig{})
	eps := []ControlInfo{
		{Addr: "utk1.example:9700", Component: "ibp-depot", Name: "UTK1"},
		{Addr: "aaa.example:9701", Component: "maintaind", Name: "maintaind-0"},
		{Addr: "reg.example:9702", Component: "lbone-server", Name: "reg.example:6767"},
	}
	for _, ci := range eps {
		if err := c.RegisterControl(ci); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c.ListControls()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("CLIST returned %d entries, want 3: %+v", len(got), got)
	}
	// Address-ordered, fields intact.
	if got[0].Addr != "aaa.example:9701" || got[1].Addr != "reg.example:9702" || got[2].Addr != "utk1.example:9700" {
		t.Fatalf("order wrong: %+v", got)
	}
	if got[2].Component != "ibp-depot" || got[2].Name != "UTK1" {
		t.Fatalf("fields lost in round-trip: %+v", got[2])
	}

	if err := c.HeartbeatControl("utk1.example:9700"); err != nil {
		t.Fatal(err)
	}
	if err := c.HeartbeatControl("ghost:1"); !wire.IsRemote(err, wire.CodeNotFound) {
		t.Fatalf("heartbeat ghost = %v, want NOT_FOUND", err)
	}
	if err := c.DeregisterControl("utk1.example:9700"); err != nil {
		t.Fatal(err)
	}
	got, err = c.ListControls()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("after deregister: %+v", got)
	}
}

func TestControlExpiryFollowsTTL(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	r := NewRegistryClock(time.Minute, clk)
	r.RegisterControl(ControlInfo{Addr: "a:1", Component: "ibp-depot", Name: "A"})
	if len(r.Controls()) != 1 {
		t.Fatal("fresh control endpoint should be live")
	}
	clk.Advance(2 * time.Minute)
	if len(r.Controls()) != 0 {
		t.Fatal("stale control endpoint should be hidden")
	}
	if !r.HeartbeatControl("a:1") {
		t.Fatal("heartbeat on known endpoint should succeed")
	}
	if len(r.Controls()) != 1 {
		t.Fatal("heartbeated endpoint should be live again")
	}
}

func TestControlBadRequests(t *testing.T) {
	s, _ := startServer(t, ServerConfig{})
	conn, err := dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, c := range [][]string{
		{opCRegister, "a:1"},                // too few fields
		{opCRegister, "a:1", "x", "y", "z"}, // too many fields
		{opCHeartbeat},                      // missing addr
		{opCDeregister},                     // missing addr
	} {
		if err := conn.WriteLine(c...); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadStatus(); err == nil {
			t.Fatalf("request %v should fail", c)
		}
	}
	// The depot table is untouched by control traffic and the connection
	// survives the bad requests.
	if err := conn.WriteLine(opList); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadStatus(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvertisedControlAddr(t *testing.T) {
	for _, c := range []struct{ in, wantPort string }{
		{"0.0.0.0:9700", "9700"},
		{"[::]:9700", "9700"},
		{":9700", "9700"},
	} {
		got := AdvertisedControlAddr(c.in)
		if got == c.in {
			t.Errorf("AdvertisedControlAddr(%q) left wildcard host in place", c.in)
		}
		if want := ":" + c.wantPort; len(got) < len(want) || got[len(got)-len(want):] != want {
			t.Errorf("AdvertisedControlAddr(%q) = %q, want port %s", c.in, got, c.wantPort)
		}
	}
	// Concrete hosts pass through unchanged.
	if got := AdvertisedControlAddr("utk1.example:9700"); got != "utk1.example:9700" {
		t.Errorf("concrete host rewritten: %q", got)
	}
	if got := AdvertisedControlAddr("192.168.1.5:9700"); got != "192.168.1.5:9700" {
		t.Errorf("concrete IP rewritten: %q", got)
	}
}

// TestAnnounceControlStaysListedAcrossTTL announces a control endpoint
// against a registry on the default 5m TTL and requires the entry to be
// listed at every virtual minute for two hours: a daemon whose own work
// cadence is long (maintaind -probe-interval 30m) must not fall out of
// the aggregator's member list.
func TestAnnounceControlStaysListedAcrossTTL(t *testing.T) {
	clk := vclock.NewVirtual(time.Date(2002, 1, 22, 0, 0, 0, 0, time.UTC))
	s, _ := startServer(t, ServerConfig{TTL: 5 * time.Minute, Clock: clk})
	c := NewClient(s.Addr(), WithClock(clk))
	ci := ControlInfo{Addr: "m.example:9791", Component: "maintaind", Name: "maintaind-0"}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.AnnounceControl(ci, nil, stop)
	}()
	defer func() { close(stop); <-done }()

	for minute := 0; minute <= 120; minute++ {
		// The announcer parks on the clock only after its announcement
		// went out, so a pending waiter means the registry is current.
		deadline := time.Now().Add(10 * time.Second)
		for clk.PendingWaiters() == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("minute %d: announcer never parked on the clock", minute)
			}
			time.Sleep(time.Millisecond)
		}
		got, err := c.ListControls()
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Addr != ci.Addr {
			t.Fatalf("minute %d: control entry not listed (CLIST = %+v)", minute, got)
		}
		clk.Advance(time.Minute)
	}
}
