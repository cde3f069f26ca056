package obs

import (
	"net/http"
	"net/http/pprof"
	"runtime"
)

// RuntimeMetrics samples the Go runtime: goroutine count, heap usage, and
// GC activity. Every Surface appends it to /metrics, so a stuck daemon
// can be diagnosed without a debugger.
func RuntimeMetrics() []Metric {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return []Metric{
		{Name: "go_goroutines", Help: "Live goroutines.", Type: "gauge",
			Value: float64(runtime.NumGoroutine())},
		{Name: "go_memstats_heap_alloc_bytes", Help: "Heap bytes allocated and in use.", Type: "gauge",
			Value: float64(ms.HeapAlloc)},
		{Name: "go_memstats_heap_sys_bytes", Help: "Heap bytes obtained from the OS.", Type: "gauge",
			Value: float64(ms.HeapSys)},
		{Name: "go_memstats_heap_objects", Help: "Live heap objects.", Type: "gauge",
			Value: float64(ms.HeapObjects)},
		{Name: "go_gc_cycles_total", Help: "Completed GC cycles.", Type: "counter",
			Value: float64(ms.NumGC)},
		{Name: "go_gc_pause_seconds_total", Help: "Cumulative GC stop-the-world pause time.", Type: "counter",
			Value: float64(ms.PauseTotalNs) / 1e9},
	}
}

// AttachPprof registers the net/http/pprof handlers on mux. The stack's
// daemons serve metrics on purpose-built muxes rather than
// http.DefaultServeMux, so the pprof package's init-time registration never
// reaches them; this wires the same endpoints up explicitly. Gate it behind
// a flag: profiling endpoints expose heap contents.
func AttachPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}
