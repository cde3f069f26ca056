package depot

import (
	"errors"

	"repro/internal/obs"
)

// The depot's scrape surface (see obs.Surface). The handlers read live
// state per request, so a scraper sees current gauges, not a snapshot
// from startup.

// PromMetrics renders the depot's operation counters and allocation/expiry
// gauges as Prometheus samples.
func (d *Depot) PromMetrics() []obs.Metric {
	s := d.metrics.Snapshot()
	var ms []obs.Metric
	counter := func(name, help string, v int64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "counter", Value: float64(v)})
	}
	gauge := func(name, help string, v float64) {
		ms = append(ms, obs.Metric{Name: name, Help: help, Type: "gauge", Value: v})
	}
	opCount := func(verb string, v int64) {
		ms = append(ms, obs.Metric{
			Name: "ibp_depot_ops_total", Help: "Operations served, by verb.", Type: "counter",
			Value: float64(v), Labels: []obs.Label{{Name: "verb", Value: verb}},
		})
	}
	opCount("allocate", s.Allocates)
	opCount("store", s.Stores)
	opCount("load", s.Loads)
	opCount("probe", s.Probes)
	opCount("extend", s.Extends)
	opCount("delete", s.Deletes)
	// BATCH stays off the fixed-width METRICS wire response (old clients
	// parse 13 counters positionally), but scrapers should still see
	// pipelining adoption.
	opCount("batch", s.Batches)
	counter("ibp_depot_bytes_in_total", "Payload bytes stored.", s.BytesIn)
	counter("ibp_depot_bytes_out_total", "Payload bytes served.", s.BytesOut)
	counter("ibp_depot_errors_total", "Requests answered with ERR.", s.Errors)
	counter("ibp_depot_cap_violations_total", "Capability verification failures.", s.Violations)
	counter("ibp_depot_reaped_total", "Allocations reclaimed by expiry.", s.Reaped)
	counter("ibp_depot_connects_total", "Connections accepted.", s.Connects)
	counter("ibp_depot_restores_total", "Allocations restored at startup.", s.Restores)

	gauge("ibp_depot_allocations", "Live allocations.", float64(d.AllocationCount()))
	gauge("ibp_depot_used_bytes", "Committed capacity in bytes.", float64(d.UsedBytes()))
	gauge("ibp_depot_capacity_bytes", "Total capacity in bytes.", float64(d.Capacity()))
	nextExpiry := 0.0
	if exp, ok := d.NextExpiry(); ok {
		if until := exp.Sub(d.clock.Now()); until > 0 {
			nextExpiry = until.Seconds()
		}
	}
	gauge("ibp_depot_next_expiry_seconds", "Seconds until the earliest allocation expires (0 = none pending).", nextExpiry)
	if pb, ok := d.cfg.Backend.(*PackBackend); ok {
		ps := pb.Stats()
		gauge("ibp_depot_pack_bundles", "Open pack bundle files.", float64(ps.Bundles))
		gauge("ibp_depot_pack_journal_bytes", "Size of the pack journal in bytes.", float64(ps.JournalBytes))
		counter("ibp_depot_pack_reclaimed_bytes_total", "Dead pack bytes hole-punched out of bundle files.", ps.ReclaimedBytes)
		counter("ibp_depot_pack_punch_errors_total", "Hole punches the filesystem refused; those ranges stay allocated.", ps.PunchErrors)
	}
	return ms
}

// healthy reports whether the depot is still serving.
func (d *Depot) healthy() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return errors.New("depot closed")
	}
	return nil
}

// Surface describes the depot's HTTP surface: its own series and
// liveness on the shared routes, traces and postmortems from its flight
// recorder.
func (d *Depot) Surface() obs.Surface {
	return obs.Surface{
		Component: "ibp-depot", Now: d.clock.Now, Start: d.started,
		Recorder: d.cfg.Recorder, Metrics: d.PromMetrics, Healthy: d.healthy,
	}
}
