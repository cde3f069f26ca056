package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// result is one invocation's measurements.
type result struct {
	workload  string
	untraced  *phase
	traced    *phase // nil unless --trace 1
	setups    []time.Duration
	snap      *snapshot
	traceFile string
	notes     []string // why a per-layer metric reads 0
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndDefs are printed by every untraced run, on every workload.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower"},
	{"upload_p50_ms", "ms", "lower"},
	{"download_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_MB", "MB", "lower"},
	{"disk_bytes_per_live_byte", "ratio", "lower"},
}

// ibpVerbs are the IBP verbs reported per verb.
var ibpVerbs = []string{"ALLOCATE", "STORE", "LOAD", "PROBE", "EXTEND", "DELETE"}

// traceKinds are the user-op types the traced run decomposes.
var traceKinds = []string{kindUpload, kindDownload, kindCoded, kindRepair}

// traceLayers are the layers one op's wall time is split into.
var traceLayers = []string{"exnode", "lbone", "nws", "core", "ibp", "depot_queue", "depot_backend", "depot_other"}

// perLayerDefs are printed by every traced run, on every workload; a metric
// with nothing to measure on a workload reads 0 and a note on stderr says
// why.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{"exnode.marshal_us_per_op", "us", "lower"},
		{"exnode.unmarshal_us_per_op", "us", "lower"},
		{"lbone.queries_per_upload", "count", "lower"},
		{"lbone.query_ms_p50", "ms", "lower"},
		{"lbone.cpu_ms_per_upload", "ms", "lower"},
		{"nws.forecast_calls_per_download", "count", "lower"},
		{"nws.busy_us_per_download", "us", "lower"},
		{"core.self_ms_per_op", "ms", "lower"},
		{"core.extents_per_download", "count", "lower"},
		{"core.upload_attempts_per_fragment", "count", "lower"},
		{"core.failovers_per_download", "count", "lower"},
		{"core.coded_extents_per_download", "count", "lower"},
		{"core.coded_attempt_self_ms", "ms", "lower"},
		{"transfer.limit_waits_per_op", "count", "lower"},
		{"transfer.singleflight_shared", "count", "higher"},
		{"transfer.hedges_launched", "count", "lower"},
	}
	for _, v := range ibpVerbs {
		d = append(d,
			metricDef{"ibp." + v + ".ops_per_user_op", "count", "lower"},
			metricDef{"ibp." + v + ".busy_ms_per_user_op", "ms", "lower"})
	}
	d = append(d,
		metricDef{"ibp.STORE.MBps", "MB/s", "higher"},
		metricDef{"ibp.LOAD.MBps", "MB/s", "higher"},
		metricDef{"ibp.batched_ops_per_user_op", "count", "higher"},
		metricDef{"ibp.conn_reuse_ratio", "ratio", "higher"},
		metricDef{"ibp.failed_ops_per_user_op.refused", "count", "lower"},
		metricDef{"ibp.failed_ops_per_user_op.timeout", "count", "lower"},
		metricDef{"ibp.failed_ops_per_user_op.circuit_open", "count", "lower"},
		metricDef{"net.dials_per_user_op", "count", "lower"},
		metricDef{"net.dial_us_p50", "us", "lower"},
		metricDef{"net.wire_bytes_per_user_byte", "ratio", "lower"},
		metricDef{"net.read_wait_ms_per_op", "ms", "lower"},
	)
	for _, v := range ibpVerbs {
		d = append(d,
			metricDef{"depot." + v + ".queue_ms", "ms", "lower"},
			metricDef{"depot." + v + ".backend_ms", "ms", "lower"})
	}
	d = append(d,
		metricDef{"depot.connects_per_user_op", "count", "lower"},
		metricDef{"depot.ops_per_user_op", "count", "lower"},
		metricDef{"depot.errors", "count", "lower"},
		metricDef{"depot.cpu_ms_per_user_op", "ms", "lower"},
		metricDef{"pack.journal_bytes_per_alloc", "bytes", "lower"},
		metricDef{"pack.bundle_files", "count", "lower"},
		metricDef{"pack.allocated_bytes", "bytes", "lower"},
		metricDef{"client.alloc_bytes_per_user_byte", "ratio", "lower"},
		metricDef{"client.allocs_per_op", "count", "lower"},
		metricDef{"client.gc_cycles_per_s", "1/s", "lower"},
		metricDef{"client.cpu_ms_per_user_op", "ms", "lower"},
	)
	for _, k := range traceKinds {
		d = append(d, metricDef{"trace." + k + ".wall_ms", "ms", "lower"})
		for _, l := range traceLayers {
			d = append(d, metricDef{"trace." + k + "." + l + "_ms", "ms", "lower"})
		}
		d = append(d,
			metricDef{"trace." + k + ".remainder_share", "ratio", "lower"},
			metricDef{"trace." + k + ".overhead_ms", "ms", "lower"})
	}
	d = append(d,
		metricDef{"e2e.upload_p99_ms", "ms", "lower"},
		metricDef{"e2e.download_p99_ms", "ms", "lower"},
		metricDef{"e2e.coded_download_p50_ms", "ms", "lower"},
		metricDef{"e2e.coded_download_p99_ms", "ms", "lower"},
		metricDef{"e2e.repair_p50_ms", "ms", "lower"},
		metricDef{"e2e.upload_MBps", "MB/s", "higher"},
		metricDef{"e2e.download_MBps", "MB/s", "higher"},
		metricDef{"e2e.failed_ops_ratio", "ratio", "lower"},
		metricDef{"e2e.upload_samples", "count", "higher"},
		metricDef{"e2e.download_samples", "count", "higher"},
		metricDef{"e2e.coded_download_samples", "count", "higher"},
	)
	return d
}()

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of xs by linear interpolation (xs need
// not be sorted); 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile returns the p99 only when at least ten samples lie beyond it.
func tailQuantile(xs []float64) float64 {
	if len(xs) < 1000 {
		return 0
	}
	return quantile(xs, 0.99)
}

// userOps returns the phase's user ops (cleanup excluded).
func (ph *phase) userOps() []*opRec {
	var out []*opRec
	for _, r := range ph.ops {
		if r.kind != kindDelete {
			out = append(out, r)
		}
	}
	return out
}

// walls returns the wall times (ms) of the successful ops of one kind.
func (ph *phase) walls(kind string) []float64 {
	var out []float64
	for _, r := range ph.ops {
		if r.kind == kind && !r.failed {
			out = append(out, ms(r.wall))
		}
	}
	return out
}

// segmentP50 is the p50 of one op kind, taken as the median of the
// medians of ten equal time slices of the phase: a slowdown of the host
// that covers fewer than half the slices does not move it.
func (ph *phase) segmentP50(kind string) float64 {
	const segs = 10
	slices := make([][]float64, segs)
	for _, r := range ph.ops {
		if r.kind != kind || r.failed {
			continue
		}
		i := int(int64(segs) * int64(r.start.Sub(ph.start)) / int64(ph.elapsed))
		if i >= segs {
			i = segs - 1
		}
		slices[i] = append(slices[i], ms(r.wall))
	}
	var meds []float64
	for _, s := range slices {
		if len(s) > 0 {
			meds = append(meds, quantile(s, 0.5))
		}
	}
	return quantile(meds, 0.5)
}

// rates returns bytes/wall (MB/s) of the successful ops of one kind.
func (ph *phase) rates(kind string) []float64 {
	var out []float64
	for _, r := range ph.ops {
		if r.kind == kind && !r.failed && r.wall > 0 {
			out = append(out, float64(r.bytes)/r.wall.Seconds()/1e6)
		}
	}
	return out
}

// opsPerSecond splits the phase's completed user ops, in completion order,
// into eight runs of equal count and returns the median of their rates:
// one stall then moves one run, not the whole figure.
func (ph *phase) opsPerSecond() float64 {
	var ends []time.Time
	for _, r := range ph.userOps() {
		ends = append(ends, r.start.Add(r.wall))
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i].Before(ends[j]) })
	const segs = 8
	if len(ends) < segs {
		if ph.elapsed <= 0 {
			return 0
		}
		return float64(len(ends)) / ph.elapsed.Seconds()
	}
	var rates []float64
	prev := ph.start
	for s := 1; s <= segs; s++ {
		lo := (s - 1) * len(ends) / segs
		hi := s * len(ends) / segs
		end := ends[hi-1]
		if d := end.Sub(prev); d > 0 {
			rates = append(rates, float64(hi-lo)/d.Seconds())
		}
		prev = end
	}
	return quantile(rates, 0.5)
}

// counts returns attempted and failed user ops over every phase run. A
// failed cleanup delete also counts as a failure.
func (res *result) counts() (attempted, failed int) {
	for _, ph := range []*phase{res.untraced, res.traced} {
		if ph == nil {
			continue
		}
		for _, r := range ph.ops {
			if r.kind != kindDelete {
				attempted++
			}
			if r.failed {
				failed++
			}
		}
	}
	return attempted, failed
}

// endToEnd computes every end-to-end metric from the untraced phase.
func (res *result) endToEnd() map[string]metric {
	ph := res.untraced
	var setups []float64
	for _, d := range res.setups {
		setups = append(setups, d.Seconds())
	}
	v := map[string]float64{
		"setup_s":         quantile(setups, 0.5),
		"upload_p50_ms":   ph.segmentP50(kindUpload),
		"download_p50_ms": ph.segmentP50(kindDownload),
		"ops_per_s":       ph.opsPerSecond(),
	}
	// CPU time of every process in the stack per user op: the load
	// generator (its input generation and byte checks included), the
	// depots and the L-Bone. Time the host steals is not in it.
	if n := len(ph.userOps()); n > 0 {
		cpu := (ph.after.clientCPU - ph.before.clientCPU) + (ph.after.depotCPU - ph.before.depotCPU) +
			(ph.after.lboneCPU - ph.before.lboneCPU)
		v["cpu_ms_per_op"] = ms(cpu) / float64(n)
	}
	if s := res.snap; s != nil {
		v["peak_rss_MB"] = float64(s.rssBytes) / (1 << 20)
		if s.liveBytes > 0 {
			v["disk_bytes_per_live_byte"] = float64(s.diskBytes) / float64(s.liveBytes)
		}
	}
	out := map[string]metric{}
	for _, d := range endToEndDefs {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

// e2eExtras are the end-to-end figures that exist on only some workloads
// (p99s need 1,000 samples; coded downloads and repairs happen only in
// degraded). They are reported with the traced run's per-layer metrics,
// taken from its untraced phase.
func (res *result) e2eExtras() map[string]float64 {
	ph := res.untraced
	att, failed := 0, 0
	for _, r := range ph.userOps() {
		att++
		if r.failed {
			failed++
		}
	}
	v := map[string]float64{
		"e2e.upload_p99_ms":          tailQuantile(ph.walls(kindUpload)),
		"e2e.download_p99_ms":        tailQuantile(ph.walls(kindDownload)),
		"e2e.coded_download_p50_ms":  quantile(ph.walls(kindCoded), 0.5),
		"e2e.coded_download_p99_ms":  tailQuantile(ph.walls(kindCoded)),
		"e2e.repair_p50_ms":          quantile(ph.walls(kindRepair), 0.5),
		"e2e.upload_MBps":            quantile(ph.rates(kindUpload), 0.5),
		"e2e.download_MBps":          quantile(ph.rates(kindDownload), 0.5),
		"e2e.upload_samples":         float64(len(ph.walls(kindUpload))),
		"e2e.download_samples":       float64(len(ph.walls(kindDownload))),
		"e2e.coded_download_samples": float64(len(ph.walls(kindCoded))),
	}
	if att > 0 {
		v["e2e.failed_ops_ratio"] = float64(failed) / float64(att)
	}
	return v
}

// interval is a closed time range.
type interval struct{ s, e time.Time }

// unionLen returns the total length covered by ivs.
func unionLen(ivs []interval) time.Duration {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var total time.Duration
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.s.After(cur.e) {
			total += cur.e.Sub(cur.s)
			cur = iv
			continue
		}
		if iv.e.After(cur.e) {
			cur.e = iv.e
		}
	}
	return total + cur.e.Sub(cur.s)
}

// ibpIntervals returns the exchanges of an op's IBP events. Sub-ops of one
// BATCH share a start and split its wall time evenly, so they are summed
// back into one exchange.
func ibpIntervals(evs []obs.Event) []interval {
	type key struct {
		t    time.Time
		addr string
	}
	batch := map[key]time.Duration{}
	var out []interval
	for _, ev := range evs {
		if ev.Latency <= 0 {
			continue
		}
		if ev.Batched {
			batch[key{ev.Time, ev.Depot}] += ev.Latency
			continue
		}
		out = append(out, interval{ev.Time, ev.Time.Add(ev.Latency)})
	}
	for k, d := range batch {
		out = append(out, interval{k.t, k.t.Add(d)})
	}
	return out
}

// layers splits one traced op's wall time into its layers' self times. The
// tools call is the core layer's span; L-Bone queries, NWS calls and IBP
// exchanges are its children; each exchange's depot-side time comes from
// the ts= trailer (queue, backend, and the rest of the server span).
func layers(r *opRec) map[string]time.Duration {
	l := map[string]time.Duration{"exnode": r.marshal + r.unmarshal, "nws": r.nwsBusy}
	for _, d := range r.lbone {
		l["lbone"] += d
	}
	union := unionLen(ibpIntervals(r.events))
	var server time.Duration
	for _, ev := range r.events {
		if s := ev.Server; s != nil {
			l["depot_queue"] += s.Queue
			l["depot_backend"] += s.Backend
			if o := s.Total - s.Queue - s.Backend; o > 0 {
				l["depot_other"] += o
			}
			server += s.Total
		}
	}
	if d := union - server; d > 0 {
		l["ibp"] = d
	}
	if d := r.call - union - l["lbone"] - l["nws"]; d > 0 {
		l["core"] = d
	}
	return l
}

// codedSelf is a coded attempt's time minus the LOADs it waited on: the RS
// decode and checksum verification.
func codedSelf(r *opRec) []time.Duration {
	var out []time.Duration
	for _, a := range r.codedAttempts {
		s, e := a.Start, a.Start.Add(a.Duration)
		var loads []interval
		for _, ev := range r.events {
			if ev.Verb != "LOAD" || ev.Latency <= 0 {
				continue
			}
			ls, le := ev.Time, ev.Time.Add(ev.Latency)
			if ls.Before(s) {
				ls = s
			}
			if le.After(e) {
				le = e
			}
			if le.After(ls) {
				loads = append(loads, interval{ls, le})
			}
		}
		out = append(out, a.Duration-unionLen(loads))
	}
	return out
}

// perLayer computes every per-layer metric from the traced phase, with the
// outside counters read around the untraced phase (so process CPU, depot
// counters and client allocation exclude the instruments' own cost).
func (res *result) perLayer() map[string]metric {
	tr, un := res.traced, res.untraced
	v := map[string]float64{}
	ops := tr.userOps()
	nOps := float64(len(ops))
	var uploads, downloads, marshals, unmarshals, fragments, fragAttempts float64
	var marshalT, unmarshalT, nwsT, coreT time.Duration
	var lq []float64
	var nwsCalls, extents, coded, failovers float64
	var codedSelfs []float64
	var userBytes float64
	for _, r := range ops {
		userBytes += float64(r.bytes)
		switch r.kind {
		case kindUpload:
			uploads++
			v["lbone.queries_per_upload"] += float64(len(r.lbone))
		case kindDownload, kindCoded:
			downloads++
			nwsCalls += float64(r.nwsForecasts)
			nwsT += r.nwsBusy
			extents += float64(r.extents)
			coded += float64(r.codedExtents)
			failovers += float64(r.failovers)
		}
		if r.kind == kindUpload || r.kind == kindRepair {
			marshals++
			marshalT += r.marshal
		}
		if r.kind != kindUpload {
			unmarshals++
			unmarshalT += r.unmarshal
		}
		fragments += float64(r.fragments)
		fragAttempts += float64(r.fragAttempts)
		for _, d := range r.lbone {
			lq = append(lq, ms(d))
		}
		coreT += layers(r)["core"]
		for _, d := range codedSelf(r) {
			codedSelfs = append(codedSelfs, ms(d))
		}
	}
	div := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	v["exnode.marshal_us_per_op"] = div(us(marshalT), marshals)
	v["exnode.unmarshal_us_per_op"] = div(us(unmarshalT), unmarshals)
	v["lbone.queries_per_upload"] = div(v["lbone.queries_per_upload"], uploads)
	v["lbone.query_ms_p50"] = quantile(lq, 0.5)
	unUploads := float64(len(un.walls(kindUpload)))
	v["lbone.cpu_ms_per_upload"] = div(ms(un.after.lboneCPU-un.before.lboneCPU), unUploads)
	v["nws.forecast_calls_per_download"] = div(nwsCalls, downloads)
	v["nws.busy_us_per_download"] = div(us(nwsT), downloads)
	v["core.self_ms_per_op"] = div(ms(coreT), nOps)
	v["core.extents_per_download"] = div(extents, downloads)
	v["core.upload_attempts_per_fragment"] = div(fragAttempts, fragments)
	v["core.failovers_per_download"] = div(failovers, downloads)
	v["core.coded_extents_per_download"] = div(coded, downloads)
	v["core.coded_attempt_self_ms"] = quantile(codedSelfs, 0.5)
	v["transfer.limit_waits_per_op"] = div(float64(tr.transfer.LimitWaits), nOps)
	v["transfer.singleflight_shared"] = float64(tr.transfer.SingleflightShared)
	v["transfer.hedges_launched"] = float64(tr.transfer.HedgesLaunched)

	// IBP client, per verb, over every traced record (cleanup deletes
	// included: they are the DELETE verb's only source).
	type verbAgg struct {
		n, bytes  float64
		busy      time.Duration
		queue, be time.Duration
		served    float64
	}
	verbs := map[string]*verbAgg{}
	var events, reused, batched, dials float64
	var dialUs []float64
	var wire, readWait float64
	failedBy := map[string]float64{}
	for _, r := range tr.ops {
		for _, d := range r.dials {
			dialUs = append(dialUs, us(d))
		}
		dials += float64(len(r.dials))
		wire += float64(r.wireBytes)
		readWait += ms(r.readWait)
		for _, ev := range r.events {
			a := verbs[ev.Verb]
			if a == nil {
				a = &verbAgg{}
				verbs[ev.Verb] = a
			}
			a.n++
			a.busy += ev.Latency
			a.bytes += float64(ev.Bytes)
			if s := ev.Server; s != nil {
				a.queue += s.Queue
				a.be += s.Backend
				a.served++
			}
			events++
			if ev.Reused {
				reused++
			}
			if ev.Batched {
				batched++
			}
			if !ev.OK() {
				failedBy[ev.Outcome]++
			}
		}
	}
	for _, verb := range ibpVerbs {
		a := verbs[verb]
		if a == nil {
			a = &verbAgg{}
			res.note("ibp.%s.*: no %s ops on %s", verb, verb, res.workload)
		}
		v["ibp."+verb+".ops_per_user_op"] = div(a.n, nOps)
		v["ibp."+verb+".busy_ms_per_user_op"] = div(ms(a.busy), nOps)
		v["depot."+verb+".queue_ms"] = div(ms(a.queue), a.served)
		v["depot."+verb+".backend_ms"] = div(ms(a.be), a.served)
		if a.n > 0 && a.served == 0 {
			res.note("depot.%s.queue_ms/backend_ms: every %s on %s ran as a BATCH sub-op, which carries no ts= trailer", verb, verb, res.workload)
		}
	}
	for _, verb := range []string{"STORE", "LOAD"} {
		if a := verbs[verb]; a != nil {
			v["ibp."+verb+".MBps"] = div(a.bytes/1e6, a.busy.Seconds())
		}
	}
	v["ibp.batched_ops_per_user_op"] = div(batched, nOps)
	v["ibp.conn_reuse_ratio"] = div(reused, events)
	v["ibp.failed_ops_per_user_op.refused"] = div(failedBy["refused"], nOps)
	v["ibp.failed_ops_per_user_op.timeout"] = div(failedBy["timeout"], nOps)
	v["ibp.failed_ops_per_user_op.circuit_open"] = div(failedBy["circuit-open"], nOps)
	v["net.dials_per_user_op"] = div(dials, nOps)
	v["net.dial_us_p50"] = quantile(dialUs, 0.5)
	v["net.wire_bytes_per_user_byte"] = div(wire, userBytes)
	v["net.read_wait_ms_per_op"] = div(readWait, nOps)

	// Depot and pack, from /metrics deltas and the pack directories around
	// the untraced phase.
	unOps := float64(len(un.userOps()))
	delta := func(name string) float64 { return un.after.depot[name] - un.before.depot[name] }
	var depotOps float64
	for _, verb := range []string{"allocate", "store", "load", "probe", "extend", "delete"} {
		depotOps += delta(`ibp_depot_ops_total{verb="` + verb + `"}`)
	}
	v["depot.connects_per_user_op"] = div(delta("ibp_depot_connects_total"), unOps)
	v["depot.ops_per_user_op"] = div(depotOps, unOps)
	v["depot.errors"] = delta("ibp_depot_errors_total")
	v["depot.cpu_ms_per_user_op"] = div(ms(un.after.depotCPU-un.before.depotCPU), unOps)
	allocs := delta(`ibp_depot_ops_total{verb="allocate"}`)
	v["pack.journal_bytes_per_alloc"] = div(float64(un.after.journal-un.before.journal), allocs)
	v["pack.bundle_files"] = float64(un.after.bundles)
	v["pack.allocated_bytes"] = float64(un.after.allocated)

	// The client process, around the untraced phase.
	var unBytes float64
	for _, r := range un.userOps() {
		unBytes += float64(r.bytes)
	}
	v["client.alloc_bytes_per_user_byte"] = div(float64(un.after.mem.TotalAlloc-un.before.mem.TotalAlloc), unBytes)
	v["client.allocs_per_op"] = div(float64(un.after.mem.Mallocs-un.before.mem.Mallocs), unOps)
	v["client.gc_cycles_per_s"] = div(float64(un.after.mem.NumGC-un.before.mem.NumGC), un.elapsed.Seconds())
	v["client.cpu_ms_per_user_op"] = div(ms(un.after.clientCPU-un.before.clientCPU), unOps)

	// Per op type: each layer's mean self time against mean wall time.
	for _, k := range traceKinds {
		var n float64
		sums := map[string]time.Duration{}
		var wall time.Duration
		for _, r := range ops {
			if r.kind != k || r.failed {
				continue
			}
			n++
			wall += r.wall
			for l, d := range layers(r) {
				sums[l] += d
			}
		}
		if n == 0 {
			res.note("trace.%s.*: no %s ops on %s", k, k, res.workload)
			for _, l := range traceLayers {
				v["trace."+k+"."+l+"_ms"] = 0
			}
			continue
		}
		var sum time.Duration
		for _, l := range traceLayers {
			v["trace."+k+"."+l+"_ms"] = ms(sums[l]) / n
			sum += sums[l]
		}
		v["trace."+k+".wall_ms"] = ms(wall) / n
		v["trace."+k+".remainder_share"] = float64(wall-sum) / float64(wall)
		v["trace."+k+".overhead_ms"] = quantile(tr.walls(k), 0.5) - quantile(un.walls(k), 0.5)
	}
	for k, x := range res.e2eExtras() {
		v[k] = x
	}

	out := map[string]metric{}
	for _, d := range perLayerDefs {
		out[d.Name] = metric{Value: v[d.Name], Unit: d.Unit}
	}
	return out
}

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// writeTrace writes the traced phase's spans, one op per line, once, at
// the end of the run.
func writeTrace(path string, ph *phase) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type span struct {
		Verb    string  `json:"verb"`
		Depot   string  `json:"depot"`
		StartUs float64 `json:"start_us"`
		Us      float64 `json:"us"`
		Bytes   int64   `json:"bytes,omitempty"`
		Outcome string  `json:"outcome"`
		Batched bool    `json:"batched,omitempty"`
		QueueUs float64 `json:"queue_us,omitempty"`
		BackUs  float64 `json:"backend_us,omitempty"`
		SrvUs   float64 `json:"server_us,omitempty"`
	}
	type line struct {
		Kind    string             `json:"kind"`
		StartUs float64            `json:"start_us"`
		WallUs  float64            `json:"wall_us"`
		Failed  bool               `json:"failed,omitempty"`
		Layers  map[string]float64 `json:"layers_us"`
		IBP     []span             `json:"ibp"`
	}
	for _, r := range ph.ops {
		l := line{Kind: r.kind, StartUs: us(r.start.Sub(ph.start)), WallUs: us(r.wall), Failed: r.failed, Layers: map[string]float64{}}
		for k, d := range layers(r) {
			l.Layers[k] = us(d)
		}
		for _, ev := range r.events {
			s := span{Verb: ev.Verb, Depot: ev.Depot, StartUs: us(ev.Time.Sub(ph.start)), Us: us(ev.Latency),
				Bytes: ev.Bytes, Outcome: ev.Outcome, Batched: ev.Batched}
			if ev.Server != nil {
				s.QueueUs, s.BackUs, s.SrvUs = us(ev.Server.Queue), us(ev.Server.Backend), us(ev.Server.Total)
			}
			l.IBP = append(l.IBP, s)
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders the human-readable report printed to stderr.
func (res *result) summary(m map[string]metric) string {
	var sb strings.Builder
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "  %-44s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	return sb.String()
}
