package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/integrity"
	"repro/internal/lbone"
	"repro/internal/nws"
	"repro/internal/obs"
	"repro/internal/sealing"
)

// Strategy selects how download candidates are ordered (paper §2.3).
type Strategy int

// Download strategies.
const (
	// StrategyAuto uses NWS forecasts when an NWS service is configured,
	// otherwise static proximity — exactly the paper's described
	// behaviour.
	StrategyAuto Strategy = iota
	// StrategyNWS ranks candidates by forecast bandwidth, highest first.
	StrategyNWS
	// StrategyStatic ranks candidates by great-circle distance from the
	// client ("static, albeit unoptimal metrics").
	StrategyStatic
	// StrategyRandom shuffles candidates (baseline for the ablation
	// bench).
	StrategyRandom
)

// DownloadOptions parameterize Download.
type DownloadOptions struct {
	// Strategy orders candidate depots (default StrategyAuto).
	Strategy Strategy
	// Parallelism is the number of concurrent extent fetchers; 0 or 1
	// reproduces the paper's sequential download, >1 implements the
	// "threaded retrievals" future work.
	Parallelism int
	// MaxAttemptsPerExtent bounds failover (0 = try every candidate).
	MaxAttemptsPerExtent int
	// SkipVerify disables end-to-end checksum verification even when the
	// exNode records digests.
	SkipVerify bool
	// Seed makes StrategyRandom deterministic.
	Seed int64
	// DisableCoding skips parity/Reed-Solomon recovery when replicas
	// fail (for ablation benches).
	DisableCoding bool
	// DecryptionKey unseals an encrypted exNode after retrieval. Required
	// when the exNode records a cipher, unless Raw is set.
	DecryptionKey []byte
	// Raw returns the stored ciphertext of an encrypted exNode without
	// decrypting — what Augment uses to replicate sealed data without
	// ever holding the key.
	Raw bool
	// Readahead is how many extents a streaming reader prefetches beyond
	// the one being consumed (0 = fully lazy, the paper's mode). Memory
	// stays bounded at Readahead+1 extents. Ignored by non-streaming
	// downloads, which parallelise via Parallelism instead.
	Readahead int
	// Budget bounds the whole download in (possibly simulated) time:
	// once exceeded, remaining extents are not attempted and the download
	// fails with ErrBudgetExceeded. Zero means no bound. Both the
	// sequential and parallel paths enforce it; an in-flight extent is
	// allowed to finish, but no further extent starts past the deadline.
	Budget time.Duration
	// Span, when sampled, traces the download: each extent fetch becomes a
	// child span, IBP operations run under it (propagated to depots over
	// the wire), and the transfer engine's hedging decisions are recorded
	// against it. Mint one with obs.NewRootSpan (xnd does this for
	// --trace).
	Span obs.SpanContext
}

// ErrBudgetExceeded is returned when DownloadOptions.Budget runs out.
var ErrBudgetExceeded = errors.New("core: download time budget exceeded")

// ErrEncrypted is returned when downloading an encrypted exNode without a
// key.
var ErrEncrypted = errors.New("core: exnode is encrypted; supply DownloadOptions.DecryptionKey or set Raw")

// ExtentReport records how one extent of a download was served.
type ExtentReport struct {
	Start, End int64
	Depot      string    // depot display name that served it ("" on failure)
	Addr       string    // depot address
	Attempts   int       // candidates tried (including the winner)
	Coded      bool      // served via parity/RS recovery instead of a replica
	Trail      []Attempt // every attempt in order, failures included
	Err        error     // non-nil when the extent could not be retrieved
}

// Report summarizes a download for the experiment harness.
type Report struct {
	Extents   []ExtentReport
	Duration  time.Duration
	Bytes     int64
	Failovers int // failed attempts across all extents
}

// OK reports whether every extent was retrieved.
func (r *Report) OK() bool {
	for _, e := range r.Extents {
		if e.Err != nil {
			return false
		}
	}
	return true
}

// Download retrieves the entire file described by x.
//
// The returned slice is borrowed from bufpool (ownership rule 4): the
// caller owns it and may release it with bufpool.Put once done with the
// contents, which lets a steady-state consumer download without a single
// large allocation per file. Callers that keep the data simply never Put.
func (t *Tools) Download(x *exnode.ExNode, opts DownloadOptions) ([]byte, *Report, error) {
	return t.DownloadRange(x, 0, x.Size, opts)
}

// DownloadRange retrieves bytes [offset, offset+length) of the file: the
// range is split into extents at segment boundaries, each extent is
// fetched from the best candidate depot with failover, and coded blocks
// are used for recovery when every replica of an extent is unavailable.
// The returned slice is pool-backed; see Download for the ownership
// contract.
func (t *Tools) DownloadRange(x *exnode.ExNode, offset, length int64, opts DownloadOptions) ([]byte, *Report, error) {
	if err := x.Validate(); err != nil {
		return nil, nil, err
	}
	if offset < 0 || offset+length > x.Size || length < 0 {
		return nil, nil, fmt.Errorf("core: range [%d,%d) outside file of %d bytes", offset, offset+length, x.Size)
	}
	start := t.clock().Now()
	exts := x.Boundaries(offset, offset+length)
	// The assembly buffer is borrowed, not allocated: extents are fetched
	// straight into their slot, and ownership passes to the caller on
	// return (see Download). Beyond skipping the allocation this also
	// skips zeroing `length` bytes the fetches are about to overwrite.
	buf := bufpool.Get(int(length))
	report := &Report{Extents: make([]ExtentReport, len(exts))}

	dir := &depotLocations{t: t}
	overBudget := func() bool {
		return opts.Budget > 0 && t.clock().Since(start) > opts.Budget
	}
	workers := opts.Parallelism
	if workers <= 1 {
		for i, ext := range exts {
			if overBudget() {
				report.Extents[i] = ExtentReport{Start: ext.Start, End: ext.End, Err: ErrBudgetExceeded}
				continue
			}
			er := t.fetchExtent(x, ext, buf[ext.Start-offset:ext.End-offset], opts, dir, i)
			report.Extents[i] = er
			report.Failovers += er.Attempts
			if er.Err == nil && er.Attempts > 0 {
				report.Failovers-- // the successful attempt is not a failover
			}
		}
	} else {
		type job struct {
			idx int
			ext exnode.Extent
		}
		jobs := make(chan job)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				for j := range jobs {
					// The deadline is checked before each job is fetched
					// (the clock serializes reads, so workers cannot race
					// it into a stale answer): skipped extents report
					// ErrBudgetExceeded rather than pretending no budget
					// was set.
					if overBudget() {
						report.Extents[j.idx] = ExtentReport{Start: j.ext.Start, End: j.ext.End, Err: ErrBudgetExceeded}
						continue
					}
					er := t.fetchExtent(x, j.ext, buf[j.ext.Start-offset:j.ext.End-offset], opts, dir, j.idx)
					report.Extents[j.idx] = er
				}
				done <- struct{}{}
			}()
		}
		for i, ext := range exts {
			jobs <- job{i, ext}
		}
		close(jobs)
		for w := 0; w < workers; w++ {
			<-done
		}
		for _, er := range report.Extents {
			report.Failovers += er.Attempts
			if er.Err == nil && er.Attempts > 0 {
				report.Failovers--
			}
		}
	}

	report.Duration = t.clock().Since(start)
	report.Bytes = length
	for _, er := range report.Extents {
		if er.Err != nil {
			bufpool.Put(buf)
			return nil, report, fmt.Errorf("core: download %q: extent [%d,%d): %w",
				x.Name, er.Start, er.End, er.Err)
		}
	}
	buf, err := t.unsealRange(x, buf, offset, opts)
	if err != nil {
		return nil, report, err
	}
	return buf, report, nil
}

// unsealRange decrypts downloaded bytes when the exNode is encrypted. CTR
// mode makes arbitrary offsets decryptable independently.
//
// unsealRange consumes buf: on the plaintext path it is returned
// unchanged (still owned by the caller), on every other path — fresh
// plaintext or error — buf is released to the pool and must not be
// touched again by the caller.
func (t *Tools) unsealRange(x *exnode.ExNode, buf []byte, offset int64, opts DownloadOptions) ([]byte, error) {
	if !x.Encrypted() || opts.Raw {
		return buf, nil
	}
	if opts.DecryptionKey == nil {
		bufpool.Put(buf)
		return nil, ErrEncrypted
	}
	if x.Cipher != sealing.CipherAES256CTR {
		bufpool.Put(buf)
		return nil, fmt.Errorf("core: unsupported cipher %q", x.Cipher)
	}
	iv, err := sealing.DecodeIV(x.IV)
	if err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	plain, err := sealing.UnsealAt(opts.DecryptionKey, iv, buf, offset)
	// Decryption produced a fresh plaintext buffer either way; the
	// ciphertext one goes back to the pool.
	bufpool.Put(buf)
	if err != nil {
		return nil, fmt.Errorf("core: unsealing %q: %w", x.Name, err)
	}
	return plain, nil
}

// depotLocations is a download's view of where the L-Bone places each
// depot, for static proximity ranking. It asks the L-Bone at most once per
// download, and only when a ranking actually compares static distances:
// a long-lived client whose candidates all carry NWS forecasts downloads
// without an L-Bone round trip.
type depotLocations struct {
	t    *Tools
	once sync.Once
	locs map[string]geo.Point
}

func (d *depotLocations) get() map[string]geo.Point {
	d.once.Do(func() {
		d.locs = map[string]geo.Point{}
		if d.t.LBone == nil {
			return
		}
		depots, err := d.t.LBone.Query(lbone.Requirements{})
		if err != nil {
			d.t.logf("core: lbone query failed: %v", err)
			return
		}
		for _, info := range depots {
			d.locs[info.Addr] = info.Loc
		}
	})
	return d.locs
}

func (t *Tools) effectiveStrategy(s Strategy) Strategy {
	if s == StrategyAuto {
		if t.NWS != nil {
			return StrategyNWS
		}
		return StrategyStatic
	}
	return s
}

// fetchExtent retrieves one extent into dst with ranked failover. With a
// transfer engine attached the candidates are raced through it (per-depot
// concurrency slots, hedged backup attempts); without one the plain
// sequential failover loop runs.
func (t *Tools) fetchExtent(x *exnode.ExNode, ext exnode.Extent, dst []byte, opts DownloadOptions, dir *depotLocations, seedMix int) ExtentReport {
	cands := t.rankCandidates(x.Candidates(ext), opts, dir, seedMix)
	er := ExtentReport{Start: ext.Start, End: ext.End}
	// Under a sampled download span each extent gets its own child span:
	// the IBP client ops and hedge events below it share the extent's span
	// as parent, and the extent itself is recorded as a synthetic EXTENT
	// event so the joined timeline shows the core layer too.
	var sc obs.SpanContext
	if opts.Span.Sampled && opts.Span.Valid() {
		sc = opts.Span.Child()
		t0 := t.clock().Now()
		defer func() {
			if o := t.IBP.Observer(); o != nil {
				ev := obs.Event{
					Time: t0, Verb: "EXTENT", Latency: t.clock().Since(t0),
					Trace: sc.TraceID, Span: sc.SpanID, Parent: opts.Span.SpanID,
					Note:  fmt.Sprintf("[%d,%d)", ext.Start, ext.End),
					Depot: er.Addr, Outcome: "success",
				}
				if er.Err != nil {
					ev.Outcome = "error"
					ev.Err = er.Err.Error()
				} else {
					ev.Bytes = ext.Len()
				}
				o.Record(ev)
			}
		}()
	}
	var ok bool
	if t.Transfer != nil {
		ok = t.raceCandidates(&er, cands, ext, dst, opts, sc)
	} else {
		ok = t.tryCandidates(&er, cands, ext, dst, opts, sc)
	}
	if ok {
		return er
	}
	// Every replica failed (or none existed): try coded recovery.
	if !opts.DisableCoding {
		t0 := t.clock().Now()
		depot, err := t.recoverFromCoding(x, ext, dst, opts)
		a := Attempt{Depot: depot, Coded: true, Start: t0, Duration: t.clock().Since(t0)}
		if err == nil {
			a.Bytes = ext.Len()
			er.Trail = append(er.Trail, a)
			er.Depot = depot
			er.Coded = true
			er.Err = nil
			return er
		}
		a.Err = err.Error()
		er.Trail = append(er.Trail, a)
		t.logf("core: extent [%d,%d): coded recovery failed: %v", ext.Start, ext.End, err)
		if er.Err == nil {
			er.Err = err
		}
	}
	if er.Err == nil {
		er.Err = exnode.ErrNoCoverage
	}
	return er
}

// tryCandidates is the plain sequential failover loop: each ranked
// candidate is tried in turn until one serves the extent. Attempts load
// straight into dst — sequential failover never has two writers.
func (t *Tools) tryCandidates(er *ExtentReport, cands []*exnode.Mapping, ext exnode.Extent, dst []byte, opts DownloadOptions, sc obs.SpanContext) bool {
	max := opts.MaxAttemptsPerExtent
	for i, m := range cands {
		if max > 0 && i >= max {
			break
		}
		er.Attempts++
		t0 := t.clock().Now()
		err := t.attemptLoad(m, ext, dst, opts, nil, sc)
		a := Attempt{Depot: m.Depot, Addr: m.Read.Addr, Start: t0, Duration: t.clock().Since(t0)}
		if err != nil {
			a.Err = err.Error()
			er.Trail = append(er.Trail, a)
			t.logf("core: extent [%d,%d): depot %s failed: %v", ext.Start, ext.End, m.Depot, err)
			er.Err = err
			continue
		}
		a.Bytes = ext.Len()
		er.Trail = append(er.Trail, a)
		er.Depot = m.Depot
		er.Addr = m.Read.Addr
		er.Err = nil
		return true
	}
	return false
}

// raceCandidates walks the ranked candidates through the transfer engine.
// Each step races cands[i] as primary against cands[i+1] as the hedged
// backup (launched only if the primary outlives the engine's threshold);
// on total failure of a step the walk falls over past every candidate it
// consumed. The primary loads straight into dst; a launched backup loads
// into a pooled buffer of its own and is copied out only when it wins.
func (t *Tools) raceCandidates(er *ExtentReport, cands []*exnode.Mapping, ext exnode.Extent, dst []byte, opts DownloadOptions, sc obs.SpanContext) bool {
	max := opts.MaxAttemptsPerExtent
	for i := 0; i < len(cands); {
		if max > 0 && er.Attempts >= max {
			break
		}
		pair := [2]*exnode.Mapping{cands[i], nil}
		addrs := [2]string{cands[i].Read.Addr, ""}
		if i+1 < len(cands) && (max <= 0 || er.Attempts+1 < max) {
			pair[1] = cands[i+1]
			addrs[1] = cands[i+1].Read.Addr
		}
		// Two hedged attempts must never share dst, but only the backup
		// needs its own buffer: the primary loads straight into dst, so
		// the common case (primary wins, no hedge or a lost hedge) moves
		// every byte exactly once. HedgeCtx waits for every launched
		// attempt before returning, so by the time the winner is resolved
		// nobody is still writing either buffer — if the backup won, the
		// primary's dead prefix in dst is simply overwritten by the copy.
		var backup []byte
		winner, out := t.Transfer.HedgeCtx(sc, addrs, func(idx int, cancel <-chan struct{}) error {
			buf := dst
			if idx == 1 {
				buf = bufpool.Get(int(ext.Len()))
			}
			if err := t.attemptLoad(pair[idx], ext, buf, opts, cancel, sc); err != nil {
				if idx == 1 {
					bufpool.Put(buf)
				}
				return err
			}
			if idx == 1 {
				backup = buf
			}
			return nil
		})
		launched := 0
		for idx, o := range out {
			if o == nil {
				continue
			}
			launched++
			er.Attempts++
			a := Attempt{
				Depot: pair[idx].Depot, Addr: pair[idx].Read.Addr,
				Start: o.Start, Duration: o.End.Sub(o.Start), Hedged: o.Hedged,
			}
			if o.Err != nil {
				a.Err = o.Err.Error()
				er.Err = o.Err
				t.logf("core: extent [%d,%d): depot %s failed: %v", ext.Start, ext.End, pair[idx].Depot, o.Err)
			} else {
				a.Bytes = ext.Len()
			}
			er.Trail = append(er.Trail, a)
		}
		if winner >= 0 {
			if winner == 1 {
				copy(dst, backup)
			}
			bufpool.Put(backup)
			er.Depot = pair[winner].Depot
			er.Addr = pair[winner].Read.Addr
			er.Err = nil
			return true
		}
		bufpool.Put(backup)
		if launched == 0 {
			break
		}
		i += launched
	}
	return false
}

// attemptLoad loads ext from one mapping into the caller-owned dst (which
// must be exactly ext.Len() bytes) and verifies integrity when possible.
// A non-nil cancel may abandon the load mid-flight (the losing side of a
// hedged race); dst then holds an undefined prefix.
func (t *Tools) attemptLoad(m *exnode.Mapping, ext exnode.Extent, dst []byte, opts DownloadOptions, cancel <-chan struct{}, sc obs.SpanContext) error {
	off := ext.Start - m.Offset
	t0 := t.clock().Now()
	client := t.IBP
	if sc.Sampled && sc.Valid() {
		// Run the wire operation under the extent's span: the op event and
		// the depot's server span both join the timeline beneath it.
		client = t.IBP.WithSpan(sc)
	}
	if err := client.LoadIntoCancel(dst, m.Read, off, cancel); err != nil {
		return err
	}
	elapsed := t.clock().Since(t0)
	// Feed the observation back into NWS: real downloads are the best
	// bandwidth sensor.
	if t.NWS != nil && elapsed > 0 {
		mbits := float64(ext.Len()*8) / 1e6 / elapsed.Seconds()
		// Score the forecast against the measurement it steered before the
		// measurement itself updates the series.
		if t.Forecast != nil {
			if predicted, ok := t.NWS.Forecast(t.Site, m.Read.Addr, nws.Bandwidth); ok {
				t.Forecast.Observe(t.Site, m.Read.Addr, predicted, mbits, t.clock().Now())
			}
		}
		t.NWS.Record(t.Site, m.Read.Addr, nws.Bandwidth, mbits)
	}
	// End-to-end verification is possible when the extent spans the whole
	// mapping (the digest covers the full stored fragment).
	if !opts.SkipVerify && m.Checksum != "" && off == 0 && ext.Len() == m.Length {
		if err := integrity.Verify(dst, m.Checksum); err != nil {
			return err
		}
	}
	return nil
}

// rankCandidates orders mappings per the strategy, then demotes depots
// whose health circuit is open below every healthy candidate: they stay in
// the list as last-resort fallbacks (where the breaker fails them fast),
// but no extent pays a dial timeout against a known-dead depot while a
// healthy replica exists.
func (t *Tools) rankCandidates(cands []*exnode.Mapping, opts DownloadOptions, dir *depotLocations, seedMix int) []*exnode.Mapping {
	out := t.rankByStrategy(cands, opts, dir, seedMix)
	if t.Health == nil {
		return out
	}
	healthy := make([]*exnode.Mapping, 0, len(out))
	var blocked []*exnode.Mapping
	for _, m := range out {
		if t.healthBlocked(m.Read.Addr) {
			blocked = append(blocked, m)
		} else {
			healthy = append(healthy, m)
		}
	}
	return append(healthy, blocked...)
}

// rankByStrategy orders mappings per the strategy alone.
func (t *Tools) rankByStrategy(cands []*exnode.Mapping, opts DownloadOptions, dir *depotLocations, seedMix int) []*exnode.Mapping {
	out := append([]*exnode.Mapping(nil), cands...)
	switch t.effectiveStrategy(opts.Strategy) {
	case StrategyRandom:
		rng := rand.New(rand.NewSource(opts.Seed + int64(seedMix)*7919))
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	case StrategyNWS:
		// Forecast bandwidth per candidate; candidates without forecasts
		// rank below all forecasted ones, ordered statically. Distances
		// are only compared, and so only looked up, between two or more
		// unforecasted candidates.
		type scored struct {
			m  *exnode.Mapping
			bw float64
			ok bool
			d  float64
		}
		ss := make([]scored, len(out))
		unforecast := 0
		for i, m := range out {
			s := scored{m: m}
			if t.NWS != nil {
				s.bw, s.ok = t.NWS.Forecast(t.Site, m.Read.Addr, nws.Bandwidth)
			}
			if !s.ok {
				unforecast++
			}
			ss[i] = s
		}
		if unforecast >= 2 {
			locs := dir.get()
			for i := range ss {
				ss[i].d = t.staticDistance(ss[i].m, locs)
			}
		}
		sort.SliceStable(ss, func(i, j int) bool {
			if ss[i].ok != ss[j].ok {
				return ss[i].ok
			}
			if ss[i].ok {
				return ss[i].bw > ss[j].bw
			}
			return ss[i].d < ss[j].d
		})
		for i, s := range ss {
			out[i] = s.m
		}
	default: // StrategyStatic
		if len(out) < 2 {
			break
		}
		locs := dir.get()
		sort.SliceStable(out, func(i, j int) bool {
			return t.staticDistance(out[i], locs) < t.staticDistance(out[j], locs)
		})
	}
	return out
}

func (t *Tools) staticDistance(m *exnode.Mapping, locs map[string]geo.Point) float64 {
	p, ok := locs[m.Read.Addr]
	if !ok {
		return math.Inf(1)
	}
	return geo.Distance(t.Loc, p)
}
