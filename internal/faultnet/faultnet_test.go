package faultnet

import (
	"bytes"
	"errors"
	"math"
	"net"
	"os"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/vclock"
	"repro/internal/wire"
)

var t0 = time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)

func TestRenewalProcessDeterministic(t *testing.T) {
	p1 := NewRenewalProcess(t0, time.Hour, 5*time.Minute, 42)
	p2 := NewRenewalProcess(t0, time.Hour, 5*time.Minute, 42)
	for i := 0; i < 1000; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if p1.UpAt(at) != p2.UpAt(at) {
			t.Fatalf("same seed diverged at %v", at)
		}
	}
}

func TestRenewalProcessBeforeStartIsUp(t *testing.T) {
	p := NewRenewalProcess(t0, time.Hour, time.Minute, 1)
	if !p.UpAt(t0.Add(-time.Hour)) {
		t.Fatal("process should be up before start")
	}
}

func TestRenewalProcessSteadyState(t *testing.T) {
	// Empirical availability over a long horizon should approach
	// meanUp/(meanUp+meanDown).
	p := NewRenewalProcess(t0, 95*time.Minute, 5*time.Minute, 7)
	want := p.ExpectedAvailability()
	up, total := 0, 0
	for i := 0; i < 20000; i++ {
		if p.UpAt(t0.Add(time.Duration(i) * time.Minute)) {
			up++
		}
		total++
	}
	got := float64(up) / float64(total)
	if math.Abs(got-want) > 0.03 {
		t.Fatalf("empirical availability %.3f, want ~%.3f", got, want)
	}
}

func TestRenewalProcessOutOfOrderQueriesConsistent(t *testing.T) {
	f := func(seed int64, offsets []uint32) bool {
		p := NewRenewalProcess(t0, 30*time.Minute, 2*time.Minute, seed)
		// Ask far in the future first, then earlier times; answers must
		// match a fresh process queried in order.
		q := NewRenewalProcess(t0, 30*time.Minute, 2*time.Minute, seed)
		_ = p.UpAt(t0.Add(100 * time.Hour))
		for _, off := range offsets {
			at := t0.Add(time.Duration(off%360000) * time.Second)
			if p.UpAt(at) != q.UpAt(at) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWindowsAndAll(t *testing.T) {
	w := Windows{Down: []Window{{t0.Add(time.Hour), t0.Add(2 * time.Hour)}}}
	if !w.UpAt(t0) || w.UpAt(t0.Add(90*time.Minute)) || !w.UpAt(t0.Add(2*time.Hour)) {
		t.Fatal("window boundaries wrong")
	}
	combo := All{w, AlwaysUp{}}
	if combo.UpAt(t0.Add(time.Hour)) || !combo.UpAt(t0) {
		t.Fatal("All combinator wrong")
	}
}

func TestForAvailability(t *testing.T) {
	meanUp := ForAvailability(0.95, 5*time.Minute)
	got := float64(meanUp) / float64(meanUp+5*time.Minute)
	if math.Abs(got-0.95) > 1e-9 {
		t.Fatalf("ForAvailability solved to %.4f", got)
	}
}

// simDepot starts a real depot and registers it in a model.
func simDepot(t *testing.T, m *Model, clock vclock.Clock, site string, st DepotState) *depot.Depot {
	t.Helper()
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret:   []byte("faultnet-test"),
		Capacity: 64 << 20,
		Clock:    clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	st.Site = site
	m.AddDepot(d.Addr(), st)
	return d
}

func TestShapedTransferAdvancesVirtualTime(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 1)
	// 8 Mbit/s, 50 ms RTT between UTK and HARVARD.
	m.SetLink("HARVARD", "UTK", Link{RTT: 50 * time.Millisecond, Mbps: 8})
	d := simDepot(t, m, clk, "UTK", DepotState{})

	client := ibp.NewClient(
		ibp.WithDialer(m.DialerFrom("HARVARD")),
		ibp.WithClock(clk),
	)
	set, err := client.Allocate(d.Addr(), 2<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xaa}, 1<<20) // 1 MiB = 8.39 Mbit
	if _, err := client.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	start := clk.Now()
	got, err := client.Load(set.Read, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload mismatch through shaped conn")
	}
	elapsed := clk.Since(start)
	// 8.39 Mbit at 8 Mbit/s ≈ 1.05 s plus RTTs; loopback alone would be
	// microseconds of virtual time.
	if elapsed < 800*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("virtual transfer time = %v, want ~1s", elapsed)
	}
}

func TestLocalLinkFasterThanWAN(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 2)
	m.SetLocalLink(Link{RTT: time.Millisecond, Mbps: 100})
	m.SetLink("HARVARD", "UTK", Link{RTT: 70 * time.Millisecond, Mbps: 2})
	d := simDepot(t, m, clk, "UTK", DepotState{})

	payload := bytes.Repeat([]byte{1}, 256<<10)
	measure := func(site string) time.Duration {
		client := ibp.NewClient(ibp.WithDialer(m.DialerFrom(site)), ibp.WithClock(clk))
		set, err := client.Allocate(d.Addr(), 1<<20, time.Hour, ibp.Hard)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Store(set.Write, payload); err != nil {
			t.Fatal(err)
		}
		start := clk.Now()
		if _, err := client.Load(set.Read, 0, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		return clk.Since(start)
	}
	local := measure("UTK")
	remote := measure("HARVARD")
	if local*10 > remote {
		t.Fatalf("local %v should be far faster than remote %v", local, remote)
	}
}

func TestDepotDownFastRefusal(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 3)
	d := simDepot(t, m, clk, "UTK", DepotState{
		Avail: Windows{Down: []Window{{t0, t0.Add(time.Hour)}}},
	})
	client := ibp.NewClient(
		ibp.WithDialer(m.DialerFrom("UTK")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(5*time.Second),
	)
	start := clk.Now()
	_, err := client.Status(d.Addr())
	if err == nil {
		t.Fatal("dial to down depot should fail")
	}
	if refusal := clk.Since(start); refusal > time.Second {
		t.Fatalf("refusal took %v of virtual time, want fast", refusal)
	}
	// After the outage window the depot answers again.
	clk.Advance(2 * time.Hour)
	if _, err := client.Status(d.Addr()); err != nil {
		t.Fatalf("depot should be back up: %v", err)
	}
}

func TestLinkDownTimesOutAfterDialTimeout(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 4)
	m.SetLink("UCSD", "UCSB", Link{
		RTT: 20 * time.Millisecond, Mbps: 10,
		Avail: Windows{Down: []Window{{t0, t0.Add(time.Hour)}}},
	})
	d := simDepot(t, m, clk, "UCSB", DepotState{})
	client := ibp.NewClient(
		ibp.WithDialer(m.DialerFrom("UCSD")),
		ibp.WithClock(clk),
		ibp.WithDialTimeout(5*time.Second),
	)
	start := clk.Now()
	_, err := client.Status(d.Addr())
	if err == nil {
		t.Fatal("dial over down link should fail")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("err = %v, want net timeout", err)
	}
	if got := clk.Since(start); got < 5*time.Second {
		t.Fatalf("timed out after %v, want full 5s dial timeout", got)
	}
	// Same depot reachable from its own site (link UCSD→UCSB is down,
	// UCSB-local is not).
	local := ibp.NewClient(ibp.WithDialer(m.DialerFrom("UCSB")), ibp.WithClock(clk))
	if _, err := local.Status(d.Addr()); err != nil {
		t.Fatalf("local access should bypass the down link: %v", err)
	}
}

func TestVirtualDeadlineEnforced(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 5)
	// Very slow link: 0.5 Mbit/s.
	m.SetLink("HARVARD", "UCSB", Link{RTT: 80 * time.Millisecond, Mbps: 0.5})
	d := simDepot(t, m, clk, "UCSB", DepotState{})
	client := ibp.NewClient(
		ibp.WithDialer(m.DialerFrom("HARVARD")),
		ibp.WithClock(clk),
		ibp.WithOpTimeout(2*time.Second), // 2s at 0.5 Mbit/s = 125 KB max
	)
	set, err := client.Allocate(d.Addr(), 4<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	// Upload 2 MiB: needs ~33 s of virtual time, deadline is 2 s.
	_, err = client.Store(set.Write, bytes.Repeat([]byte{1}, 2<<20))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

func TestCorruptReads(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 6)
	d := simDepot(t, m, clk, "UTK", DepotState{})
	client := ibp.NewClient(ibp.WithDialer(m.DialerFrom("UTK")), ibp.WithClock(clk))
	set, err := client.Allocate(d.Addr(), 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xf7}, 1<<15)
	if _, err := client.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	// Turn on corruption only for the download; the next exchange picks up
	// the new depot state, on a fresh connection or a reused one.
	m.SetDepotCorruption(d.Addr(), true)
	got, err := client.Load(set.Read, 0, int64(len(payload)))
	if err == nil && bytes.Equal(got, payload) {
		t.Fatal("corrupting depot returned pristine data")
	}
}

func TestUnknownDepotRejected(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 7)
	dialer := m.DialerFrom("UTK")
	if _, err := dialer.Dial("tcp", "127.0.0.1:1", time.Second); err == nil {
		t.Fatal("dialing an unregistered address should fail")
	}
}

func TestJitterVariesBandwidthDeterministically(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 8)
	m.SetLink("A", "B", Link{RTT: 10 * time.Millisecond, Mbps: 10, JitterFrac: 0.3})
	d := simDepot(t, m, clk, "B", DepotState{})
	client := ibp.NewClient(ibp.WithDialer(m.DialerFrom("A")), ibp.WithClock(clk))
	set, err := client.Allocate(d.Addr(), 1<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 512<<10)
	if _, err := client.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	var times []time.Duration
	for i := 0; i < 5; i++ {
		start := clk.Now()
		if _, err := client.Load(set.Read, 0, int64(len(payload))); err != nil {
			t.Fatal(err)
		}
		times = append(times, clk.Since(start))
	}
	allEqual := true
	for _, d := range times[1:] {
		if d != times[0] {
			allEqual = false
		}
	}
	if allEqual {
		t.Fatalf("jittered transfers all took exactly %v", times[0])
	}
}

func TestDepotUpLinkUpQueries(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 10)
	m.AddDepot("1.2.3.4:1", DepotState{
		Site:  "UTK",
		Avail: Windows{Down: []Window{{t0.Add(time.Hour), t0.Add(2 * time.Hour)}}},
	})
	if !m.DepotUp("1.2.3.4:1") {
		t.Fatal("depot should be up before its window")
	}
	if !m.DepotUp("unknown:1") {
		t.Fatal("unknown depots default to up")
	}
	clk.Advance(90 * time.Minute)
	if m.DepotUp("1.2.3.4:1") {
		t.Fatal("depot should be down inside its window")
	}
	m.SetLink("A", "B", Link{RTT: time.Millisecond, Mbps: 1,
		Avail: Windows{Down: []Window{{t0, t0.Add(100 * time.Hour)}}}})
	if m.LinkUp("A", "B") || m.LinkUp("B", "A") {
		t.Fatal("link (and its reverse fallback) should be down")
	}
	if !m.LinkUp("A", "C") {
		t.Fatal("default link should be up")
	}
	if !m.LinkUp("A", "A") {
		t.Fatal("local link should be up")
	}
}

// TestConditionsApplyPerExchange runs several request/response exchanges
// on one dialed connection, changing the model between them. A pooled
// client carries many operations on one connection, so every scripted
// change must reach a live connection at its next exchange: corruption
// toggled on, one corrupted byte per response, a slower link, jitter drawn
// per request turn, and a depot taken down.
func TestConditionsApplyPerExchange(t *testing.T) {
	clk := vclock.NewVirtual(t0)
	m := NewModel(clk, 11)
	m.SetLink("A", "B", Link{RTT: 10 * time.Millisecond, Mbps: 10})
	d := simDepot(t, m, clk, "B", DepotState{})
	client := ibp.NewClient(ibp.WithDialer(m.DialerFrom("A")), ibp.WithClock(clk))
	set, err := client.Allocate(d.Addr(), 1<<20, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3c}, 64<<10)
	if _, err := client.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}

	raw, err := m.DialerFrom("A").Dial("tcp", d.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewConn(raw)
	defer conn.Close()
	load := func() ([]byte, time.Duration, error) {
		start := clk.Now()
		if err := conn.WriteLine(ibp.OpLoad, set.Read.Token(), "0", wire.Itoa(int64(len(payload)))); err != nil {
			return nil, 0, err
		}
		if _, err := conn.ReadStatus(); err != nil {
			return nil, 0, err
		}
		got, err := conn.ReadBlob(int64(len(payload)))
		return got, clk.Since(start), err
	}
	flipped := func(got []byte) int {
		n := 0
		for i := range got {
			if got[i] != payload[i] {
				n++
			}
		}
		return n
	}

	got, base, err := load()
	if err != nil || flipped(got) != 0 {
		t.Fatalf("first exchange: err %v, %d corrupted bytes", err, flipped(got))
	}

	m.SetDepotCorruption(d.Addr(), true)
	for i := 0; i < 2; i++ {
		got, _, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if n := flipped(got); n != 1 {
			t.Fatalf("corrupted exchange %d: %d bytes flipped, want exactly 1 per response", i, n)
		}
	}
	m.SetDepotCorruption(d.Addr(), false)

	m.SetLink("A", "B", Link{RTT: 10 * time.Millisecond, Mbps: 1})
	if _, slow, err := load(); err != nil || slow < 5*base {
		t.Fatalf("after slowing the link 10x: err %v, exchange took %v against %v before", err, slow, base)
	}

	m.SetLink("A", "B", Link{RTT: 10 * time.Millisecond, Mbps: 10, JitterFrac: 0.3})
	first, varied := time.Duration(0), false
	for i := 0; i < 5; i++ {
		_, took, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = took
		} else if took != first {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("jittered exchanges on one connection all took %v", first)
	}

	m.AddDepot(d.Addr(), DepotState{Site: "B", Avail: Windows{Down: []Window{{clk.Now(), clk.Now().Add(time.Hour)}}}})
	if _, _, err := load(); err == nil {
		t.Fatal("exchange with a depot taken down after the dial succeeded")
	}
}
