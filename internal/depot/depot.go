package depot

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/ibp"
	"repro/internal/netx"
	"repro/internal/obs"
	"repro/internal/vclock"
	"repro/internal/wire"
)

// Config parameterizes a depot.
type Config struct {
	// Advertised is the address baked into minted capabilities. If empty,
	// the listener's address is used.
	Advertised string
	// Secret signs capability tags. Required.
	Secret []byte
	// Capacity is the total bytes the depot will commit. Required.
	Capacity int64
	// MaxDuration caps allocation lifetimes; EXTEND beyond it is refused.
	MaxDuration time.Duration
	// MaxAllocSize caps a single allocation (0 = Capacity).
	MaxAllocSize int64
	// Backend stores the byte arrays (default: in-memory).
	Backend Backend
	// Clock drives expirations (default: real time).
	Clock vclock.Clock
	// Dialer opens outbound connections for third-party COPY transfers
	// (default: the system network; the experiment harness injects the
	// simulated WAN so depot-to-depot traffic is shaped too).
	Dialer netx.Dialer
	// Logger receives per-connection errors as structured records with
	// depot/verb/trace attrs (default: discard). Build it with
	// obs.NewLogger to also retain records in a flight recorder.
	Logger *slog.Logger
	// MaxConns bounds concurrent connections (default 128).
	MaxConns int
	// Recorder retains depot log records and traced operations' server
	// spans, and backs /trace/<id> and /postmortem/<trace>; a handler panic
	// cuts a bundle from it (default: a fresh obs.NewFlightRecorder(0)).
	Recorder *obs.FlightRecorder
	// PostmortemDir, when non-empty, is where panic postmortem bundles are
	// written as POSTMORTEM_<trace>.json files.
	PostmortemDir string
}

// Depot is a running IBP depot daemon.
type Depot struct {
	cfg      Config
	ln       net.Listener
	clock    vclock.Clock
	started  time.Time
	sem      chan struct{}
	wg       sync.WaitGroup
	mu       sync.Mutex
	allocs   map[string]*allocation
	used     int64
	closed   bool
	shutdown chan struct{}
	conns    map[net.Conn]struct{}
	metrics  Metrics
	outbound *ibp.Client // third-party transfers (COPY, MCOPY)
}

type allocation struct {
	mu          sync.Mutex
	key         string
	handle      Handle
	maxSize     int64
	expires     time.Time
	reliability ibp.Reliability
	refcount    int
}

// Serve starts a depot listening on addr (e.g. "127.0.0.1:0") and serves
// until Close. It returns once the listener is ready.
func Serve(addr string, cfg Config) (*Depot, error) {
	if len(cfg.Secret) == 0 {
		return nil, errors.New("depot: config needs a secret")
	}
	if cfg.Capacity <= 0 {
		return nil, errors.New("depot: config needs a positive capacity")
	}
	if cfg.Backend == nil {
		cfg.Backend = NewMemBackend()
	}
	if cfg.Clock == nil {
		cfg.Clock = vclock.Real()
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 30 * 24 * time.Hour
	}
	if cfg.MaxAllocSize <= 0 {
		cfg.MaxAllocSize = cfg.Capacity
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 128
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("depot: listen %s: %w", addr, err)
	}
	if cfg.Advertised == "" {
		cfg.Advertised = ln.Addr().String()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	if cfg.Recorder == nil {
		cfg.Recorder = obs.NewFlightRecorder(0)
	}
	cfg.Logger = cfg.Logger.With(obs.KeyDepot, cfg.Advertised)
	d := &Depot{
		cfg:      cfg,
		ln:       ln,
		clock:    cfg.Clock,
		started:  cfg.Clock.Now(),
		sem:      make(chan struct{}, cfg.MaxConns),
		allocs:   make(map[string]*allocation),
		shutdown: make(chan struct{}),
		conns:    make(map[net.Conn]struct{}),
	}
	outOpts := []ibp.Option{ibp.WithClock(cfg.Clock)}
	if cfg.Dialer != nil {
		outOpts = append(outOpts, ibp.WithDialer(cfg.Dialer))
	}
	d.outbound = ibp.NewClient(outOpts...)
	if pb, ok := cfg.Backend.(*PackBackend); ok {
		d.restore(pb)
	}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// restore reloads the allocation table from the pack backend after a
// restart, dropping anything already expired.
func (d *Depot) restore(pb *PackBackend) {
	now := d.clock.Now()
	for key, meta := range pb.LoadMeta() {
		expires := time.Unix(meta.Expires, 0).UTC()
		if now.After(expires) {
			if err := pb.Remove(key); err != nil {
				d.cfg.Logger.Warn("restore: dropping expired allocation failed", "alloc", key, "err", err)
			}
			continue
		}
		handle, err := pb.Open(key, meta.MaxSize)
		if err != nil {
			d.cfg.Logger.Warn("restore: reopening allocation failed", "alloc", key, "err", err)
			continue
		}
		d.allocs[key] = &allocation{
			key:         key,
			handle:      handle,
			maxSize:     meta.MaxSize,
			expires:     expires,
			reliability: ibp.Reliability(meta.Reliability),
			refcount:    meta.RefCount,
		}
		d.used += meta.MaxSize
		d.metrics.Restores.Add(1)
	}
}

// persistMeta records an allocation's durable metadata when the backend
// is the pack engine.
func (d *Depot) persistMeta(a *allocation) {
	pb, ok := d.cfg.Backend.(*PackBackend)
	if !ok {
		return
	}
	a.mu.Lock()
	meta := AllocMeta{
		MaxSize:     a.maxSize,
		Expires:     a.expires.Unix(),
		Reliability: string(a.reliability),
		RefCount:    a.refcount,
	}
	a.mu.Unlock()
	if err := pb.SaveMeta(a.key, meta); err != nil {
		d.cfg.Logger.Error("persisting allocation metadata failed", "alloc", a.key, "err", err)
	}
}

// Addr returns the address the depot listens on.
func (d *Depot) Addr() string { return d.ln.Addr().String() }

// Advertised returns the address minted into capabilities.
func (d *Depot) Advertised() string { return d.cfg.Advertised }

// Close stops the listener, severs open client connections (idle
// persistent connections would otherwise block shutdown forever), and
// waits for the handler goroutines.
func (d *Depot) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	close(d.shutdown)
	for conn := range d.conns {
		conn.Close()
	}
	d.mu.Unlock()
	err := d.ln.Close()
	d.wg.Wait()
	d.outbound.Close()
	return err
}

// track registers a live connection; it reports false when the depot is
// already shutting down.
func (d *Depot) track(conn net.Conn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.conns[conn] = struct{}{}
	return true
}

func (d *Depot) untrack(conn net.Conn) {
	d.mu.Lock()
	delete(d.conns, conn)
	d.mu.Unlock()
}

// panicPostmortem cuts a bundle from the flight recorder when a handler
// panics: the retained window plus the panic itself, stored for
// /postmortem and written to PostmortemDir when configured.
func (d *Depot) panicPostmortem(r any) {
	rec := d.cfg.Recorder
	b := obs.Bundle{
		Reason: "panic", Component: "ibp-depot", CreatedAt: d.clock.Now(),
		Err: fmt.Sprint(r), Entries: rec.Recent(0),
		RingDropped: rec.Dropped(),
	}
	rec.StoreBundle(b)
	if d.cfg.PostmortemDir != "" {
		if path, err := obs.WriteBundle(d.cfg.PostmortemDir, b); err != nil {
			d.cfg.Logger.Error("writing panic postmortem failed", "err", err)
		} else {
			d.cfg.Logger.Error("wrote panic postmortem", "path", path)
		}
	}
}

func (d *Depot) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			select {
			case <-d.shutdown:
				return
			default:
			}
			d.cfg.Logger.Error("accept failed", "err", err)
			return
		}
		// The semaphore wait is the depot's accept-queue delay; it is
		// charged to the connection's first traced operation so a client
		// can tell queueing at the depot from slowness on the wire.
		qstart := d.clock.Now()
		select {
		case d.sem <- struct{}{}:
		case <-d.shutdown:
			conn.Close()
			return
		}
		queueWait := d.clock.Since(qstart)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer func() { <-d.sem }()
			defer func() {
				if r := recover(); r != nil {
					d.cfg.Logger.Error("connection handler panic", "panic", fmt.Sprint(r))
					d.panicPostmortem(r)
				}
			}()
			d.serveConn(conn, queueWait)
		}()
	}
}

// serveConn handles one client connection: a sequence of request/response
// exchanges terminated by QUIT, EOF, or a protocol error.
func (d *Depot) serveConn(raw net.Conn, queueWait time.Duration) {
	if !d.track(raw) {
		raw.Close()
		return
	}
	d.metrics.Connects.Add(1)
	defer d.untrack(raw)
	conn := &connCtx{Conn: wire.NewConn(raw), queueWait: queueWait}
	defer conn.Close()
	for {
		toks, err := conn.ReadLine()
		if err != nil {
			if err != io.EOF {
				d.cfg.Logger.Warn("read failed", "err", err)
			}
			return
		}
		if len(toks) == 0 {
			continue
		}
		ok := d.dispatch(conn, toks)
		if !ok {
			return
		}
	}
}

// dispatch handles one request; it reports whether the connection should
// continue.
func (d *Depot) dispatch(conn *connCtx, toks []string) bool {
	op, args := toks[0], toks[1:]
	if op == ibp.OpTrace {
		if err := d.handleTrace(conn, args); err != nil {
			d.cfg.Logger.Warn("operation failed", obs.KeyVerb, op, "err", err)
			return false
		}
		return true
	}
	var traceID string
	if p := conn.pending; p != nil {
		// The previous exchange armed trace context: measure this operation
		// as a server span, return its summary as a status-line trailer, and
		// retain the same record in the flight recorder. The span closes
		// as its status line goes out, so the record is exactly what the
		// client was told (a BATCH span covers the header exchange only).
		conn.pending = nil
		traceID = p.traceID
		sp := &obs.Event{
			Time: d.clock.Now(), Kind: obs.KindSpan, Trace: p.traceID,
			Depot: d.cfg.Advertised, Verb: op, Parent: p.parent,
			Server: &obs.WireSpan{SpanID: obs.NewSpanID(), Queue: conn.queueWait},
		}
		sp.Span = sp.Server.SpanID
		conn.queueWait = 0 // charged once per connection
		conn.span = sp
		conn.SetStatusTrailer(func() string {
			sp.Server.Total = d.clock.Since(sp.Time)
			d.recordSpan(conn)
			return sp.Server.EncodeTrailer()
		})
		defer func() {
			conn.SetStatusTrailer(nil)
			if conn.span != nil {
				d.recordSpan(conn)
			}
		}()
	}
	var err error
	switch op {
	case ibp.OpAllocate:
		err = d.handleAllocate(conn, args)
	case ibp.OpStore:
		err = d.handleStore(conn, args)
	case ibp.OpLoad:
		err = d.handleLoad(conn, args)
	case ibp.OpProbe:
		err = d.handleProbe(conn, args)
	case ibp.OpExtend:
		err = d.handleExtend(conn, args)
	case ibp.OpDelete:
		err = d.handleDelete(conn, args)
	case ibp.OpStatus:
		err = d.handleStatus(conn)
	case OpMetrics:
		err = d.handleMetrics(conn)
	case ibp.OpCopy:
		err = d.handleCopy(conn, args)
	case ibp.OpMCopy:
		err = d.handleMCopy(conn, args)
	case ibp.OpBatch:
		err = d.handleBatch(conn, args)
	case ibp.OpQuit:
		return false
	default:
		err = conn.WriteErr(wire.CodeUnsupported, "unknown operation %s", op)
	}
	if err != nil {
		l := d.cfg.Logger
		if traceID != "" {
			l = l.With(obs.KeyTrace, traceID)
		}
		l.Warn("operation failed", obs.KeyVerb, op, "err", err)
		return false
	}
	return true
}

// resolve authenticates a capability token and returns the live
// allocation, counting failures in the error metric.
func (d *Depot) resolve(tok string, want ibp.CapType) (*allocation, *wire.RemoteError) {
	a, rerr := d.resolveInner(tok, want)
	if rerr != nil {
		d.metrics.Errors.Add(1)
	}
	return a, rerr
}

func (d *Depot) resolveInner(tok string, want ibp.CapType) (*allocation, *wire.RemoteError) {
	cap, err := ibp.ParseToken(d.cfg.Advertised, tok)
	if err != nil {
		return nil, &wire.RemoteError{Code: wire.CodeBadRequest, Message: "malformed capability"}
	}
	if cap.Type != want {
		return nil, &wire.RemoteError{Code: wire.CodeCapMismatch, Message: fmt.Sprintf("operation requires %s capability", want)}
	}
	if !ibp.VerifyCap(d.cfg.Secret, cap) {
		d.metrics.Violations.Add(1)
		return nil, &wire.RemoteError{Code: wire.CodeDenied, Message: "capability verification failed"}
	}
	d.mu.Lock()
	a, ok := d.allocs[cap.Key]
	d.mu.Unlock()
	if !ok {
		return nil, &wire.RemoteError{Code: wire.CodeNotFound, Message: "no such allocation"}
	}
	if d.expired(a) {
		d.reapOne(a)
		return nil, &wire.RemoteError{Code: wire.CodeExpired, Message: "allocation expired"}
	}
	return a, nil
}

func (d *Depot) expired(a *allocation) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return d.clock.Now().After(a.expires)
}

// reapOne removes a single allocation and reclaims its space.
func (d *Depot) reapOne(a *allocation) {
	d.mu.Lock()
	if _, ok := d.allocs[a.key]; !ok {
		d.mu.Unlock()
		return
	}
	delete(d.allocs, a.key)
	d.used -= a.maxSize
	d.mu.Unlock()
	if err := d.cfg.Backend.Remove(a.key); err != nil {
		d.cfg.Logger.Warn("reaping allocation failed", "alloc", a.key, "err", err)
	}
	d.metrics.Reaped.Add(1)
}

// evictSoft reclaims soft allocations, earliest expiration first, until
// need bytes fit under capacity. Hard allocations are never touched — that
// is their contract.
func (d *Depot) evictSoft(need int64) {
	d.mu.Lock()
	var soft []*allocation
	for _, a := range d.allocs {
		a.mu.Lock()
		if a.reliability == ibp.Soft {
			soft = append(soft, a)
		}
		a.mu.Unlock()
	}
	free := d.cfg.Capacity - d.used
	d.mu.Unlock()
	sort.Slice(soft, func(i, j int) bool {
		soft[i].mu.Lock()
		ei := soft[i].expires
		soft[i].mu.Unlock()
		soft[j].mu.Lock()
		ej := soft[j].expires
		soft[j].mu.Unlock()
		return ei.Before(ej)
	})
	for _, a := range soft {
		if free >= need {
			return
		}
		free += a.maxSize
		d.cfg.Logger.Info("evicting soft allocation under space pressure", "alloc", a.key)
		d.reapOne(a)
	}
}

// ReapExpired sweeps all expired allocations and reports how many were
// reclaimed. Expiry is also enforced lazily on access, so calling this is
// an optimization, not a correctness requirement.
func (d *Depot) ReapExpired() int {
	d.mu.Lock()
	var doomed []*allocation
	now := d.clock.Now()
	for _, a := range d.allocs {
		a.mu.Lock()
		if now.After(a.expires) {
			doomed = append(doomed, a)
		}
		a.mu.Unlock()
	}
	d.mu.Unlock()
	for _, a := range doomed {
		d.reapOne(a)
	}
	return len(doomed)
}

func (d *Depot) handleAllocate(conn *connCtx, args []string) error {
	set, rerr := d.allocate(conn, args)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	return conn.WriteOK(set.Read.String(), set.Write.String(), set.Manage.String())
}

// allocate performs ALLOCATE without writing a response, so the batch path
// can capture the minted capability set for batch-local references.
func (d *Depot) allocate(conn *connCtx, args []string) (ibp.CapSet, *wire.RemoteError) {
	fail := func(code, format string, fargs ...any) (ibp.CapSet, *wire.RemoteError) {
		return ibp.CapSet{}, &wire.RemoteError{Code: code, Message: fmt.Sprintf(format, fargs...)}
	}
	if len(args) != 3 {
		return fail(wire.CodeBadRequest, "ALLOCATE wants <maxsize> <duration> <reliability>")
	}
	maxSize, err := wire.ParseInt("maxsize", args[0])
	if err != nil || maxSize <= 0 {
		return fail(wire.CodeBadRequest, "bad maxsize %q", args[0])
	}
	durSec, err := wire.ParseInt("duration", args[1])
	if err != nil || durSec <= 0 {
		return fail(wire.CodeBadRequest, "bad duration %q", args[1])
	}
	rel := ibp.Reliability(args[2])
	if !ibp.ValidReliability(rel) {
		return fail(wire.CodeBadRequest, "bad reliability %q", args[2])
	}
	dur := time.Duration(durSec) * time.Second
	if dur > d.cfg.MaxDuration {
		return fail(wire.CodeDurationCap, "duration %v exceeds depot limit %v", dur, d.cfg.MaxDuration)
	}
	if maxSize > d.cfg.MaxAllocSize {
		return fail(wire.CodeQuotaReached, "size %d exceeds per-allocation limit %d", maxSize, d.cfg.MaxAllocSize)
	}

	key, err := ibp.NewKey()
	if err != nil {
		return fail(wire.CodeInternal, "key generation failed")
	}

	d.mu.Lock()
	if d.used+maxSize > d.cfg.Capacity {
		d.mu.Unlock()
		// IBP's volatile-storage semantics: soft allocations may be
		// reclaimed early under space pressure. Sweep expired
		// allocations first, then evict soft ones (earliest-expiring
		// first) until the request fits.
		d.ReapExpired()
		d.evictSoft(maxSize)
		d.mu.Lock()
	}
	if d.used+maxSize > d.cfg.Capacity {
		avail := d.cfg.Capacity - d.used
		d.mu.Unlock()
		return fail(wire.CodeNoSpace, "need %d bytes, %d available", maxSize, avail)
	}
	d.used += maxSize
	d.mu.Unlock()

	bt := d.clock.Now()
	handle, err := d.cfg.Backend.Create(key, maxSize)
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		d.mu.Lock()
		d.used -= maxSize
		d.mu.Unlock()
		return fail(wire.CodeInternal, "backend create failed")
	}
	a := &allocation{
		key:         key,
		handle:      handle,
		maxSize:     maxSize,
		expires:     d.clock.Now().Add(dur),
		reliability: rel,
		refcount:    1,
	}
	d.mu.Lock()
	d.allocs[key] = a
	d.mu.Unlock()
	d.persistMeta(a)

	d.metrics.Allocates.Add(1)
	return ibp.MintSet(d.cfg.Secret, d.cfg.Advertised, key), nil
}

func (d *Depot) handleStore(conn *connCtx, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "STORE wants <writecap> <len>")
	}
	n, err := wire.ParseInt("len", args[1])
	if err != nil || n < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[1])
	}
	// The payload follows the request line regardless of capability
	// validity, so consume it before replying with any error. The buffer is
	// pooled: Append copies out of it (the Handle contract forbids
	// retention), so it goes back to the pool on every path.
	data, err := conn.ReadBlobPooled(n)
	if err != nil {
		return fmt.Errorf("reading store payload: %w", err)
	}
	defer bufpool.Put(data)
	a, rerr := d.resolve(args[0], ibp.CapWrite)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	bt := d.clock.Now()
	a.mu.Lock()
	newLen, err := a.handle.Append(data)
	a.mu.Unlock()
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		if errors.Is(err, ErrAllocFull) {
			return conn.WriteErr(wire.CodeNoSpace, "append exceeds allocation size %d", a.maxSize)
		}
		return conn.WriteErr(wire.CodeInternal, "append failed")
	}
	d.metrics.Stores.Add(1)
	d.metrics.BytesIn.Add(int64(len(data)))
	conn.noteBytes(int64(len(data)))
	return conn.WriteOK(wire.Itoa(int64(len(data))), wire.Itoa(newLen))
}

func (d *Depot) handleLoad(conn *connCtx, args []string) error {
	if len(args) != 3 {
		return conn.WriteErr(wire.CodeBadRequest, "LOAD wants <readcap> <offset> <len>")
	}
	off, err := wire.ParseInt("offset", args[1])
	if err != nil || off < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad offset %q", args[1])
	}
	n, err := wire.ParseInt("len", args[2])
	if err != nil || n < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[2])
	}
	a, rerr := d.resolve(args[0], ibp.CapRead)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	// Zero-copy fast path: stream the segment straight from the backend to
	// the wire. Traced operations take the buffered path so the span's
	// backend-time attribution stays exact (streaming interleaves backend
	// reads with network writes).
	if conn.span == nil {
		a.mu.Lock()
		have := a.handle.Len()
		a.mu.Unlock()
		if off+n > have {
			return conn.WriteErr(wire.CodeOutOfRange, "read [%d,%d) beyond written length %d", off, off+n, have)
		}
		// Count the load before any reply byte goes out, as the buffered
		// path does: a client that has its payload may scrape next, and
		// must see the load it was served.
		d.metrics.Loads.Add(1)
		d.metrics.BytesOut.Add(n)
		if err := conn.WriteOK(wire.Itoa(n)); err != nil {
			return err
		}
		// Once the OK is written the payload must follow whole; any failure
		// here leaves the stream unframed, so the error closes the
		// connection rather than attempting an in-band reply.
		if _, err := a.handle.WriteSegment(conn.PayloadWriter(), off, n); err != nil {
			return fmt.Errorf("streaming load payload: %w", err)
		}
		return conn.Flush()
	}
	bt := d.clock.Now()
	a.mu.Lock()
	have := a.handle.Len()
	if off+n > have {
		a.mu.Unlock()
		return conn.WriteErr(wire.CodeOutOfRange, "read [%d,%d) beyond written length %d", off, off+n, have)
	}
	buf := bufpool.Get(int(n))
	err = a.handle.ReadAt(buf, off)
	a.mu.Unlock()
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		bufpool.Put(buf)
		return conn.WriteErr(wire.CodeInternal, "read failed")
	}
	d.metrics.Loads.Add(1)
	d.metrics.BytesOut.Add(n)
	conn.noteBytes(n)
	if err := conn.WriteOK(wire.Itoa(n)); err != nil {
		bufpool.Put(buf)
		return err
	}
	// WriteBlob flushes before returning, so nothing downstream still
	// references the pooled buffer afterwards.
	err = conn.WriteBlob(buf)
	bufpool.Put(buf)
	return err
}

func (d *Depot) handleProbe(conn *connCtx, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "PROBE wants <managecap>")
	}
	a, rerr := d.resolve(args[0], ibp.CapManage)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	d.metrics.Probes.Add(1)
	a.mu.Lock()
	defer a.mu.Unlock()
	return conn.WriteOK(
		wire.Itoa(a.maxSize),
		wire.Itoa(a.handle.Len()),
		wire.Itoa(a.expires.Unix()),
		string(a.reliability),
		wire.Itoa(int64(a.refcount)),
	)
}

func (d *Depot) handleExtend(conn *connCtx, args []string) error {
	if len(args) != 2 {
		return conn.WriteErr(wire.CodeBadRequest, "EXTEND wants <managecap> <duration>")
	}
	durSec, err := wire.ParseInt("duration", args[1])
	if err != nil || durSec <= 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad duration %q", args[1])
	}
	dur := time.Duration(durSec) * time.Second
	if dur > d.cfg.MaxDuration {
		return conn.WriteErr(wire.CodeDurationCap, "duration %v exceeds depot limit %v", dur, d.cfg.MaxDuration)
	}
	a, rerr := d.resolve(args[0], ibp.CapManage)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	newExp := d.clock.Now().Add(dur)
	a.mu.Lock()
	if newExp.After(a.expires) {
		a.expires = newExp
	}
	exp := a.expires
	a.mu.Unlock()
	d.persistMeta(a)
	d.metrics.Extends.Add(1)
	return conn.WriteOK(wire.Itoa(exp.Unix()))
}

func (d *Depot) handleDelete(conn *connCtx, args []string) error {
	if len(args) != 1 {
		return conn.WriteErr(wire.CodeBadRequest, "DELETE wants <managecap>")
	}
	a, rerr := d.resolve(args[0], ibp.CapManage)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	a.mu.Lock()
	a.refcount--
	ref := a.refcount
	a.mu.Unlock()
	if ref <= 0 {
		d.reapOne(a)
	} else {
		d.persistMeta(a)
	}
	d.metrics.Deletes.Add(1)
	return conn.WriteOK(wire.Itoa(int64(ref)))
}

// handleCopy implements third-party transfer: this depot reads its own
// byte array and stores the bytes directly on the destination depot named
// by the client-supplied WRITE capability. The client never touches the
// data (paper §2.2's "routing" of files becomes a depot-to-depot move).
func (d *Depot) handleCopy(conn *connCtx, args []string) error {
	if len(args) != 4 {
		return conn.WriteErr(wire.CodeBadRequest, "COPY wants <readcap> <offset> <len> <destcap>")
	}
	off, err := wire.ParseInt("offset", args[1])
	if err != nil || off < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad offset %q", args[1])
	}
	n, err := wire.ParseInt("len", args[2])
	if err != nil || n < 0 || n > wire.MaxBlobLen {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[2])
	}
	dst, err := ibp.ParseCap(args[3])
	if err != nil || dst.Type != ibp.CapWrite {
		return conn.WriteErr(wire.CodeBadRequest, "bad destination capability")
	}
	a, rerr := d.resolve(args[0], ibp.CapRead)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	bt := d.clock.Now()
	a.mu.Lock()
	have := a.handle.Len()
	if off+n > have {
		a.mu.Unlock()
		return conn.WriteErr(wire.CodeOutOfRange, "read [%d,%d) beyond written length %d", off, off+n, have)
	}
	buf := bufpool.Get(int(n))
	defer bufpool.Put(buf) // Store is synchronous and does not retain buf
	err = a.handle.ReadAt(buf, off)
	a.mu.Unlock()
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		return conn.WriteErr(wire.CodeInternal, "read failed")
	}
	newLen, err := d.outbound.Store(dst, buf)
	if err != nil {
		return conn.WriteErr(wire.CodeUnavailable, "store to %s failed: %v", dst.Addr, err)
	}
	d.metrics.Loads.Add(1)
	d.metrics.BytesOut.Add(n)
	return conn.WriteOK(wire.Itoa(n), wire.Itoa(newLen))
}

// handleMCopy fans one local read out to several destinations: a
// depot-level multicast (IBP's mcopy). Per-destination failures do not
// fail the whole operation; each result slot is the destination's new
// length or -1.
func (d *Depot) handleMCopy(conn *connCtx, args []string) error {
	if len(args) < 5 {
		return conn.WriteErr(wire.CodeBadRequest, "MCOPY wants <readcap> <offset> <len> <n> <dst>...")
	}
	off, err := wire.ParseInt("offset", args[1])
	if err != nil || off < 0 {
		return conn.WriteErr(wire.CodeBadRequest, "bad offset %q", args[1])
	}
	n, err := wire.ParseInt("len", args[2])
	if err != nil || n < 0 || n > wire.MaxBlobLen {
		return conn.WriteErr(wire.CodeBadRequest, "bad length %q", args[2])
	}
	count, err := wire.ParseInt("count", args[3])
	if err != nil || count <= 0 || int(count) != len(args)-4 {
		return conn.WriteErr(wire.CodeBadRequest, "destination count mismatch")
	}
	dsts := make([]ibp.Cap, 0, count)
	for _, tok := range args[4:] {
		dst, err := ibp.ParseCap(tok)
		if err != nil || dst.Type != ibp.CapWrite {
			return conn.WriteErr(wire.CodeBadRequest, "bad destination capability")
		}
		dsts = append(dsts, dst)
	}
	a, rerr := d.resolve(args[0], ibp.CapRead)
	if rerr != nil {
		return conn.remoteErr(rerr)
	}
	bt := d.clock.Now()
	a.mu.Lock()
	have := a.handle.Len()
	if off+n > have {
		a.mu.Unlock()
		return conn.WriteErr(wire.CodeOutOfRange, "read [%d,%d) beyond written length %d", off, off+n, have)
	}
	buf := bufpool.Get(int(n))
	defer bufpool.Put(buf) // per-destination Stores are synchronous
	err = a.handle.ReadAt(buf, off)
	a.mu.Unlock()
	conn.noteBackend(d.clock.Since(bt))
	if err != nil {
		return conn.WriteErr(wire.CodeInternal, "read failed")
	}
	results := make([]string, len(dsts))
	for i, dst := range dsts {
		newLen, err := d.outbound.Store(dst, buf)
		if err != nil {
			d.cfg.Logger.Warn("mcopy destination failed", obs.KeyVerb, ibp.OpMCopy, "dst", dst.Addr, "err", err)
			results[i] = "-1"
			continue
		}
		results[i] = wire.Itoa(newLen)
	}
	d.metrics.Loads.Add(1)
	d.metrics.BytesOut.Add(n * int64(len(dsts)))
	return conn.WriteOK(results...)
}

func (d *Depot) handleStatus(conn *connCtx) error {
	d.mu.Lock()
	total, used, n := d.cfg.Capacity, d.used, len(d.allocs)
	d.mu.Unlock()
	return conn.WriteOK(
		wire.Itoa(total),
		wire.Itoa(used),
		wire.Itoa(int64(d.cfg.MaxDuration.Seconds())),
		wire.Itoa(int64(n)),
	)
}

// AllocationCount reports the number of live allocations (for tests and the
// depot CLI's status output).
func (d *Depot) AllocationCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocs)
}

// UsedBytes reports the committed capacity.
func (d *Depot) UsedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Capacity reports the total bytes the depot serves.
func (d *Depot) Capacity() int64 { return d.cfg.Capacity }

// NextExpiry returns the earliest allocation expiration, or false when the
// depot holds no allocations.
func (d *Depot) NextExpiry() (time.Time, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var earliest time.Time
	found := false
	for _, a := range d.allocs {
		a.mu.Lock()
		exp := a.expires
		a.mu.Unlock()
		if !found || exp.Before(earliest) {
			earliest, found = exp, true
		}
	}
	return earliest, found
}
