package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/exnode"
	"repro/internal/obs"
	"repro/internal/transfer"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	bin      string // directory holding ibp-depot, lbone-server (and xnd)
	workDir  string // scratch root; the run makes and removes its own dir in it

	// Test hooks.
	failAfterSetup bool         // fail once the stack is up, to exercise cleanup
	corruptDigest  bool         // record a wrong digest for the first upload measured
	noCleanup      bool         // keep what uploads and repairs allocate
	onStack        func(*stack) // sees every stack as it comes up
}

// spec is a workload's fixed shape.
type spec struct {
	depots  int
	workers int
	// snapAt is the completed-op count at which state-dependent metrics
	// (peak RSS, disk per live byte) are read: a point fixed by the op
	// sequence, not by the clock. For bulk it is an upload (odd count), so
	// one file is live, late enough for the high-water marks to settle.
	snapAt int
	// setups is how many times a run sets the stack up; setup_s is their
	// median, and the last stack is the one measured. A setup without
	// preload takes milliseconds, so bulk repeats it more.
	setups int
}

var specs = map[string]spec{
	"bulk":     {depots: 4, workers: 1, snapAt: 21, setups: 15},
	"small":    {depots: 4, workers: 2, snapAt: 2000, setups: 3},
	"degraded": {depots: 6, workers: 1, snapAt: 100, setups: 3},
}

// depotSites places depots at distinct distances from the client, so the
// L-Bone's proximity order, and with it placement, is the same every run.
var depotSites = []string{"UTK", "UNC", "UIUC", "UWI", "TAMU", "HARVARD"}

// object is one member of the population: the .xnd bytes `xnd` would keep
// on disk, and the SHA-256 every download is checked against.
type object struct {
	xnd   []byte
	sum   [32]byte
	size  int
	ready chan struct{} // closed once the upload that creates it is done
	ok    bool          // false when that upload failed
}

type population struct {
	mu   sync.Mutex
	objs map[int]*object
}

// setOK marks whether o's bytes are stored in the stack.
func (p *population) setOK(o *object, ok bool) {
	p.mu.Lock()
	o.ok = ok
	p.mu.Unlock()
}

func (p *population) get(i int) *object {
	p.mu.Lock()
	defer p.mu.Unlock()
	o := p.objs[i]
	if o == nil {
		o = &object{ready: make(chan struct{})}
		p.objs[i] = o
	}
	return o
}

// liveBytes sums the sizes of the objects whose uploads have completed.
func (p *population) liveBytes() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, o := range p.objs {
		if o.ok {
			n += int64(o.size)
		}
	}
	return n
}

// runner holds one invocation's state.
type runner struct {
	cfg  config
	spec spec
	dir  string
	logW io.Writer
	st   *stack
	gen  *generator
	pop  *population
	mu   sync.Mutex // guards gen

	setups    []time.Duration
	snap      *snapshot
	corrupted bool // guarded by mu
}

// snapshot is the state read at spec.snapAt completed ops.
type snapshot struct {
	rssBytes  int64
	diskBytes int64
	liveBytes int64
}

// phase is one measured interval: every op record it produced plus the
// outside-in counters read around it.
type phase struct {
	start    time.Time
	elapsed  time.Duration
	ops      []*opRec
	transfer transfer.Counters
	before   counters
	after    counters
}

// counters are the outside readings taken at a phase boundary.
type counters struct {
	depot     map[string]float64
	depotCPU  time.Duration
	lboneCPU  time.Duration
	clientCPU time.Duration
	mem       runtime.MemStats
	journal   int64
	allocated int64
	bundles   int
}

// cleanup state reachable from the signal handler.
var (
	activeMu     sync.Mutex
	activeStacks = map[*stack]bool{}
	activeDirs   = map[string]bool{}
)

func track(s *stack, dir string) {
	activeMu.Lock()
	if s != nil {
		activeStacks[s] = true
	}
	if dir != "" {
		activeDirs[dir] = true
	}
	activeMu.Unlock()
}

func untrack(s *stack, dir string) {
	activeMu.Lock()
	delete(activeStacks, s)
	delete(activeDirs, dir)
	activeMu.Unlock()
}

// cleanupAll stops every tracked stack and removes every tracked dir; the
// signal handler calls it before exiting.
func cleanupAll() {
	activeMu.Lock()
	var stacks []*stack
	for s := range activeStacks {
		stacks = append(stacks, s)
	}
	var dirs []string
	for d := range activeDirs {
		dirs = append(dirs, d)
	}
	activeMu.Unlock()
	for _, s := range stacks {
		s.stop()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}

// run executes one benchmark invocation. It always stops every daemon it
// started and removes its directory before returning.
func run(cfg config) (res *result, err error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want bulk, small or degraded)", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	track(nil, dir)
	defer func() {
		os.RemoveAll(dir)
		untrack(nil, dir)
	}()
	logf, err := os.Create(filepath.Join(dir, "client.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	r := &runner{cfg: cfg, spec: sp, dir: dir, logW: logf}

	for i := 0; i < sp.setups; i++ {
		st, pop, d, err := r.setup(fmt.Sprintf("stack%d", i))
		if st != nil && cfg.onStack != nil {
			cfg.onStack(st)
		}
		if err != nil {
			if st != nil {
				st.stop()
			}
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, d)
		if i < sp.setups-1 {
			st.stop()
			os.RemoveAll(st.dir)
			continue
		}
		r.st, r.pop = st, pop
	}
	defer r.st.stop()
	if cfg.failAfterSetup {
		return nil, errors.New("failing after setup as asked")
	}
	if cfg.workload == "degraded" {
		if err := r.degrade(); err != nil {
			return nil, err
		}
	}

	untraced := r.phase(false)
	res = &result{untraced: untraced, setups: r.setups, snap: r.snap, workload: cfg.workload}
	if cfg.trace {
		res.traced = r.phase(true)
		res.traceFile = filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeTrace(res.traceFile, res.traced); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// setup starts one stack and preloads it, returning its duration.
func (r *runner) setup(name string) (*stack, *population, time.Duration, error) {
	dir := filepath.Join(r.dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, err
	}
	r.gen = newGenerator(r.cfg.workload, r.cfg.seed)
	t0 := time.Now()
	st, err := startStack(r.cfg.bin, dir, r.spec.depots)
	if err != nil {
		return st, nil, 0, err
	}
	pop := &population{objs: map[int]*object{}}
	if err := r.preload(st, pop); err != nil {
		return st, nil, 0, err
	}
	return st, pop, time.Since(t0), nil
}

// preload creates the workload's initial population with at most
// spec.workers concurrent uploads.
func (r *runner) preload(st *stack, pop *population) error {
	sizes := r.gen.preload()
	if len(sizes) == 0 {
		return nil
	}
	var (
		mu   sync.Mutex
		next int
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < r.spec.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(st.lbone.addr, r.logW, false)
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(sizes) {
					return
				}
				coded := r.cfg.workload == "degraded" && i >= degradedPerKind
				if err := r.create(c, pop, i, sizes[i], coded); err != nil {
					mu.Lock()
					errs = append(errs, err)
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// uploadOpts returns the upload shape of the workload's replicated files.
func (r *runner) uploadOpts(rep *core.UploadReport) core.UploadOptions {
	o := core.UploadOptions{Replicas: 2, Fragments: 1, Checksum: true, Report: rep}
	switch r.cfg.workload {
	case "bulk":
		o.Fragments = 4
	case "degraded":
		o.Fragments = 3
	}
	return o
}

// create uploads object i (untimed: preload) and adds it to pop.
func (r *runner) create(c *client, pop *population, i, size int, coded bool) error {
	data := content(r.cfg.seed, i, size)
	o := pop.get(i)
	o.size = size
	o.sum = sha256.Sum256(data)
	var x *exnode.ExNode
	var err error
	name := fmt.Sprintf("obj%d", i)
	if coded {
		x, err = c.tools.UploadRS(name, data, core.CodedOptions{DataBlocks: 4, ParityBlocks: 2, Checksum: true})
	} else {
		x, err = c.tools.Upload(name, data, r.uploadOpts(nil))
	}
	if err == nil {
		o.xnd, err = exnode.Marshal(x)
	}
	pop.setOK(o, err == nil)
	close(o.ready)
	return err
}

// degrade SIGKILLs the depot nearest the client, which stays listed in the
// L-Bone, and checks that every preloaded file has a mapping on it.
func (r *runner) degrade() error {
	dead := r.st.depots[0]
	dead.kill()
	for i := 0; i < 2*degradedPerKind; i++ {
		o := r.pop.get(i)
		x, err := exnode.Unmarshal(o.xnd)
		if err != nil {
			return err
		}
		found := false
		for _, m := range x.Mappings {
			if m.Read.Addr == dead.addr {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("degraded: file %d has no mapping on the killed depot %s", i, dead.addr)
		}
	}
	return nil
}

// phase runs the workload for cfg.seconds with spec.workers closed-loop
// clients and returns what it measured.
func (r *runner) phase(traced bool) *phase {
	ph := &phase{}
	ph.before = r.readCounters()
	deadline := time.Now().Add(time.Duration(r.cfg.seconds * float64(time.Second)))
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		done int
	)
	record := func(recs ...*opRec) {
		mu.Lock()
		ph.ops = append(ph.ops, recs...)
		for _, rec := range recs {
			if rec.kind != kindDelete {
				done++
				if !traced && r.snap == nil && done == r.spec.snapAt {
					r.snap = r.takeSnapshot()
				}
			}
		}
		mu.Unlock()
	}
	addCounters := func(c *client) {
		k := c.tools.Transfer.Counters()
		mu.Lock()
		ph.transfer.HedgesLaunched += k.HedgesLaunched
		ph.transfer.LimitWaits += k.LimitWaits
		ph.transfer.SingleflightShared += k.SingleflightShared
		mu.Unlock()
	}
	logf("measuring %s (traced: %v) for %vs", r.cfg.workload, traced, r.cfg.seconds)
	ph.start = time.Now()
	for w := 0; w < r.spec.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var c *client
			for time.Now().Before(deadline) {
				if c == nil || r.cfg.workload == "degraded" {
					// degraded: every op is one `xnd` invocation with a cold
					// scoreboard and NWS.
					if c != nil {
						addCounters(c)
					}
					c = newClient(r.st.lbone.addr, r.logW, traced)
				}
				r.mu.Lock()
				op := r.gen.next()
				r.mu.Unlock()
				record(r.do(c, op)...)
			}
			if c != nil {
				addCounters(c)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(ph.start)
	if !traced && r.snap == nil {
		logf("fewer than %d ops completed: reading peak RSS and disk use at the end", r.spec.snapAt)
		r.snap = r.takeSnapshot()
	}
	ph.after = r.readCounters()
	return ph
}

// do runs one generated op (plus its untimed cleanup) and returns its
// records.
func (r *runner) do(c *client, op genOp) []*opRec {
	switch op.Kind {
	case kindUpload:
		return r.doUpload(c, op)
	case kindRepair:
		return r.doRepair(c, op)
	default:
		return r.doDownload(c, op)
	}
}

func (r *runner) doUpload(c *client, op genOp) []*opRec {
	data := content(r.cfg.seed, op.Obj, op.Size)
	o := r.pop.get(op.Obj)
	o.size = op.Size
	o.sum = sha256.Sum256(data)
	r.mu.Lock()
	if r.cfg.corruptDigest && !r.corrupted {
		r.corrupted = true
		o.sum[0] ^= 0xff
	}
	r.mu.Unlock()
	name := fmt.Sprintf("obj%d", op.Obj)
	var x *exnode.ExNode
	rep := &core.UploadReport{}
	rec := c.op(kindUpload, int64(op.Size), nil, func(t *core.Tools, _ obs.SpanContext) error {
		var err error
		x, err = t.Upload(name, data, r.uploadOpts(rep))
		return err
	}, func() error {
		var err error
		o.xnd, err = exnode.Marshal(x)
		return err
	})
	rec.noteUpload(rep)
	recs := []*opRec{rec}
	// bulk deletes each file after its download; degraded deletes its
	// uploads at once so the population stays the preloaded one.
	if r.cfg.workload == "degraded" && x != nil && !r.cfg.noCleanup {
		recs = append(recs, r.cleanup(c, x.Mappings))
	} else {
		r.pop.setOK(o, !rec.failed)
	}
	close(o.ready)
	return recs
}

func (r *runner) doDownload(c *client, op genOp) []*opRec {
	o := r.pop.get(op.Obj)
	<-o.ready
	var x *exnode.ExNode
	var data []byte
	var rep *core.Report
	kind := op.Kind
	rec := c.op(kind, int64(o.size), func() error {
		var err error
		x, err = exnode.Unmarshal(o.xnd)
		return err
	}, func(t *core.Tools, span obs.SpanContext) error {
		var err error
		data, rep, err = t.DownloadRange(x, 0, x.Size, core.DownloadOptions{Span: span})
		return err
	}, nil)
	rec.noteDownload(rep)
	if !rec.failed && sha256.Sum256(data) != o.sum {
		logf("%s of object %d: bytes do not match the uploaded digest", kind, op.Obj)
		rec.failed = true
	}
	bufpool.Put(data)
	if r.cfg.workload == "bulk" && x != nil && !r.cfg.noCleanup {
		// The bulk cycle ends by deleting its file.
		r.pop.setOK(o, false)
		return []*opRec{rec, r.cleanup(c, x.Mappings)}
	}
	return []*opRec{rec}
}

func (r *runner) doRepair(c *client, op genOp) []*opRec {
	o := r.pop.get(op.Obj)
	<-o.ready
	var x, out *exnode.ExNode
	var xnd []byte
	rec := c.op(kindRepair, int64(o.size), func() error {
		var err error
		x, err = exnode.Unmarshal(o.xnd)
		return err
	}, func(t *core.Tools, span obs.SpanContext) error {
		var err error
		out, _, err = t.Maintain(x, core.MaintainOptions{
			MinCoverage:  2,
			RefreshBelow: 24 * time.Hour,
			RefreshTo:    core.DefaultDuration,
			Download:     core.DownloadOptions{Span: span},
		})
		return err
	}, func() error {
		var err error
		xnd, err = exnode.Marshal(out)
		return err
	})
	if rec.failed || out == nil || r.cfg.noCleanup {
		return []*opRec{rec}
	}
	if len(xnd) == 0 || len(out.Mappings) <= len(x.Mappings) {
		logf("repair of object %d added no mapping", op.Obj)
		rec.failed = true
		return []*opRec{rec}
	}
	// Delete what the repair added, so the file stays degraded.
	return []*opRec{rec, r.cleanup(c, out.Mappings[len(x.Mappings):])}
}

// cleanup deletes allocations; in traced runs it is its own record so its
// DELETEs show per verb. A failed delete fails the run's correctness.
func (r *runner) cleanup(c *client, ms []*exnode.Mapping) *opRec {
	rec := c.op(kindDelete, 0, nil, func(t *core.Tools, _ obs.SpanContext) error {
		var first error
		for _, m := range ms {
			if _, err := t.IBP.Delete(m.Manage); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil)
	return rec
}

// readCounters takes the outside readings of every process.
func (r *runner) readCounters() counters {
	var k counters
	k.depot, _ = r.st.depotCounters()
	for _, d := range r.st.liveDepots() {
		cpu, _, _ := procStat(d.pid())
		k.depotCPU += cpu
	}
	k.lboneCPU, _, _ = procStat(r.st.lbone.pid())
	k.clientCPU, _, _ = procStat(os.Getpid())
	runtime.ReadMemStats(&k.mem)
	k.allocated, k.bundles, k.journal = r.st.depotDisk()
	return k
}

// takeSnapshot reads peak RSS (client + live depots) and disk use.
func (r *runner) takeSnapshot() *snapshot {
	s := &snapshot{liveBytes: r.pop.liveBytes()}
	_, hwm, _ := procStat(os.Getpid())
	s.rssBytes += hwm
	for _, d := range r.st.liveDepots() {
		_, hwm, _ := procStat(d.pid())
		s.rssBytes += hwm
	}
	s.diskBytes, _, _ = r.st.depotDisk()
	return s
}
