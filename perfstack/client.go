package main

import (
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geo"
	"repro/internal/health"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/netx"
	"repro/internal/nws"
	"repro/internal/obs"
	"repro/internal/slo"
	"repro/internal/transfer"
)

// clientSite is where every benchmark client (and every xnd invocation in
// the parity test) claims to be.
const clientSite = "UTK"

// client is one Logistical Tools client built the way `xnd`'s tools()
// builds it for a command: per-op timeout, one health scoreboard shared by
// the IBP client and the tools, no connection pooling, a local NWS, the
// transfer engine with MaxPerDepot 4 and no hedging, the flight recorder
// and SLO observers on every IBP op, and L-Bone discovery over TCP.
type client struct {
	tools *core.Tools
	probe *probe // nil in untraced runs
}

// newClient builds a client talking to the L-Bone at lboneAddr. logW
// receives the client's structured log (xnd writes it to stderr). With
// traced set, the client also carries the benchmark's outside-in
// instruments: wrapped depot and NWS sources, a counting dialer, and an
// IBP observer sink. They sit around the calls into each layer; nothing
// inside the program changes.
func newClient(lboneAddr string, logW io.Writer, traced bool) *client {
	site, _ := geo.LookupSite(clientSite)
	recorder := obs.NewFlightRecorder(0)
	forecasts := obs.NewForecastTracker(recorder)
	logger := obs.NewLogger(obs.LogConfig{W: logW, Component: "xnd", Recorder: recorder})
	sloEngine := slo.New(slo.Config{
		Objectives: slo.DefaultObjectives(),
		Logger:     logger,
		Recorder:   recorder,
	})
	sb := health.New(health.Config{
		OnTransition: func(addr string, from, to health.State, at time.Time) {
			recorder.BreakerTransition(addr, from.String(), to.String(), at)
		},
	})
	c := &client{}
	opts := []ibp.Option{ibp.WithOpTimeout(30 * time.Second), ibp.WithHealth(sb)}
	tees := []obs.Observer{recorder, slo.ObserveIBP(sloEngine)}
	if traced {
		c.probe = &probe{}
		tees = append(tees, c.probe)
		opts = append(opts, ibp.WithDialer(countingDialer{c.probe}))
	}
	observer := obs.Tee(tees...)
	opts = append(opts, ibp.WithObserver(observer))
	t := &core.Tools{
		IBP:      ibp.NewClient(opts...),
		Site:     site.Name,
		Loc:      site.Loc,
		Health:   sb,
		Logger:   logger,
		Forecast: forecasts,
	}
	var src core.NWSSource = nws.NewService(nil, 256)
	var depots core.DepotSource = lbone.NewClient(lboneAddr)
	if traced {
		src = nwsProbe{src, c.probe}
		depots = depotProbe{depots, c.probe}
	}
	t.LBone = depots
	t.NWS = src
	t.Transfer = transfer.New(transfer.Config{
		MaxPerDepot: 4,
		Health:      sb,
		Logger:      logger,
		Observer:    observer,
		Forecast: func(addr string) (float64, bool) {
			return src.Forecast(site.Name, addr, nws.Bandwidth)
		},
	})
	c.tools = t
	return c
}

// opRec is everything the benchmark learns about one user op. Untraced
// runs fill only the timing fields; traced runs also collect what the
// instruments saw while the op ran.
type opRec struct {
	kind      string // upload | download | coded_download | repair
	start     time.Time
	wall      time.Duration // whole op: exNode (un)marshal + tools call
	call      time.Duration // the tools call alone
	marshal   time.Duration // exnode.Marshal after the call
	unmarshal time.Duration // exnode.Unmarshal before the call
	bytes     int64         // user bytes moved
	failed    bool

	// Traced runs only.
	traced        bool
	lbone         []time.Duration // DepotSource.Query calls
	nwsBusy       time.Duration   // NWSSource calls
	nwsForecasts  int
	dials         []time.Duration
	wireBytes     int64
	readWait      time.Duration
	events        []obs.Event
	extents       int
	codedExtents  int
	failovers     int
	codedAttempts []core.Attempt
	fragments     int
	fragAttempts  int
}

// probe routes instrument readings to the op currently running on its
// client. Every client runs one op at a time, so whatever a probe sees
// between begin and end belongs to that op.
type probe struct {
	mu  sync.Mutex
	cur *opRec
}

func (p *probe) begin(r *opRec) {
	p.mu.Lock()
	p.cur = r
	p.mu.Unlock()
}

func (p *probe) end() {
	p.mu.Lock()
	p.cur = nil
	p.mu.Unlock()
}

func (p *probe) with(f func(r *opRec)) {
	p.mu.Lock()
	if p.cur != nil {
		f(p.cur)
	}
	p.mu.Unlock()
}

// Record implements obs.Observer: the ibp.WithObserver sink. The same
// observer also carries the transfer engine's HEDGE events and core's
// per-extent EXTENT spans; only IBP exchanges are kept, so an extent's
// checksum and copy time stays in the core layer.
func (p *probe) Record(ev obs.Event) {
	if ev.Verb == "HEDGE" || ev.Verb == "EXTENT" {
		return
	}
	p.with(func(r *opRec) { r.events = append(r.events, ev) })
}

// countingDialer is the netx.Dialer passed through ibp.WithDialer: it times
// every dial and wraps the connection to count wire bytes and read waits.
type countingDialer struct{ p *probe }

func (d countingDialer) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	t0 := time.Now()
	conn, err := netx.System().Dial(network, addr, timeout)
	dt := time.Since(t0)
	d.p.with(func(r *opRec) { r.dials = append(r.dials, dt) })
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, p: d.p}, nil
}

type countingConn struct {
	net.Conn
	p *probe
}

func (c *countingConn) Read(b []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(b)
	dt := time.Since(t0)
	c.p.with(func(r *opRec) { r.wireBytes += int64(n); r.readWait += dt })
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.p.with(func(r *opRec) { r.wireBytes += int64(n) })
	return n, err
}

// depotProbe wraps core.DepotSource to time L-Bone queries.
type depotProbe struct {
	core.DepotSource
	p *probe
}

func (d depotProbe) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	t0 := time.Now()
	out, err := d.DepotSource.Query(req)
	dt := time.Since(t0)
	d.p.with(func(r *opRec) { r.lbone = append(r.lbone, dt) })
	return out, err
}

// nwsProbe wraps core.NWSSource to count forecasts and time NWS work.
type nwsProbe struct {
	core.NWSSource
	p *probe
}

func (n nwsProbe) Forecast(src, dst string, res nws.Resource) (float64, bool) {
	t0 := time.Now()
	v, ok := n.NWSSource.Forecast(src, dst, res)
	dt := time.Since(t0)
	n.p.with(func(r *opRec) { r.nwsBusy += dt; r.nwsForecasts++ })
	return v, ok
}

func (n nwsProbe) Record(src, dst string, res nws.Resource, value float64) {
	t0 := time.Now()
	n.NWSSource.Record(src, dst, res, value)
	dt := time.Since(t0)
	n.p.with(func(r *opRec) { r.nwsBusy += dt })
}

// op runs one user op on the client: call performs the tools call, and
// marshal (run after it for uploads and repairs) or unmarshal (run before
// it for downloads) the exNode step `xnd` performs on its .xnd file. In a
// traced run the op gets a root span, so IBP ops carry it to the depots and
// the ts= trailer brings back their queue and backend times.
func (c *client) op(kind string, bytes int64, pre func() error, call func(t *core.Tools, span obs.SpanContext) error, post func() error) *opRec {
	r := &opRec{kind: kind, bytes: bytes, traced: c.probe != nil}
	t := c.tools
	var span obs.SpanContext
	if r.traced {
		span = obs.NewRootSpan()
		tc := *c.tools
		tc.IBP = c.tools.IBP.WithSpan(span)
		t = &tc
		c.probe.begin(r)
		defer c.probe.end()
	}
	r.start = time.Now()
	var err error
	if pre != nil {
		err = pre()
		r.unmarshal = time.Since(r.start)
	}
	if err == nil {
		t0 := time.Now()
		err = call(t, span)
		r.call = time.Since(t0)
		if err == nil && post != nil {
			t1 := time.Now()
			err = post()
			r.marshal = time.Since(t1)
		}
	}
	r.wall = time.Since(r.start)
	r.failed = err != nil
	if err != nil {
		logf("%s failed: %v", kind, err)
	}
	return r
}

// noteDownload copies what a core.Report says about a download into r.
func (r *opRec) noteDownload(rep *core.Report) {
	if rep == nil || !r.traced {
		return
	}
	r.extents += len(rep.Extents)
	r.failovers += rep.Failovers
	for _, e := range rep.Extents {
		if e.Coded {
			r.codedExtents++
		}
		for _, a := range e.Trail {
			if a.Coded {
				r.codedAttempts = append(r.codedAttempts, a)
			}
		}
	}
}

// noteUpload copies what a core.UploadReport says about an upload into r.
func (r *opRec) noteUpload(rep *core.UploadReport) {
	if !r.traced {
		return
	}
	for _, f := range rep.Fragments {
		r.fragments++
		r.fragAttempts += len(f.Trail)
	}
}
