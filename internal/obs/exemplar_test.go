package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	bounds := []float64{0.01, 0.1, 1}
	cases := []struct {
		v    float64
		want int
	}{
		{0.001, 0}, {0.01, 0}, {0.05, 1}, {0.1, 1}, {0.5, 2}, {1, 2}, {5, 3},
	}
	for _, c := range cases {
		if got := BucketIndex(bounds, c.v); got != c.want {
			t.Errorf("BucketIndex(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestExemplarExposition(t *testing.T) {
	c := NewCollector(16)
	start := time.Date(2002, 1, 11, 15, 0, 0, 0, time.UTC)
	// A traced fast op and a traced slow op land exemplars in different
	// buckets; an untraced op must not overwrite either.
	c.Record(Event{
		Verb: "LOAD", Depot: "d1:6714", Latency: 2 * time.Millisecond,
		Trace: "aabbccdd00112233", Span: "01", Time: start,
	})
	c.Record(Event{
		Verb: "LOAD", Depot: "d1:6714", Latency: 700 * time.Millisecond,
		Trace: "ffeeddcc00112233", Span: "02", Time: start.Add(time.Second),
	})
	c.Record(Event{Verb: "LOAD", Depot: "d1:6714", Latency: 3 * time.Millisecond})

	var b strings.Builder
	WriteMetrics(&b, c.CollectorMetrics("ibp_client_"))
	out := b.String()

	fast := fmt.Sprintf("le=%q", "0.0025")
	var fastLine, slowLine string
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "_bucket") {
			continue
		}
		if strings.Contains(line, fast) {
			fastLine = line
		}
		if strings.Contains(line, `le="1"`) {
			slowLine = line
		}
	}
	if !strings.Contains(fastLine, `# {trace_id="aabbccdd00112233"} 0.002`) {
		t.Errorf("fast bucket line missing exemplar: %q", fastLine)
	}
	if !strings.Contains(slowLine, `# {trace_id="ffeeddcc00112233"} 0.7`) {
		t.Errorf("slow bucket line missing exemplar: %q", slowLine)
	}
	// The exemplar timestamp is the observation time in unix seconds.
	if want := fmt.Sprintf("%d", start.Unix()); !strings.Contains(fastLine, want) {
		t.Errorf("fast bucket exemplar missing unix timestamp %s: %q", want, fastLine)
	}
}

func TestExemplarKeepsMostRecentPerBucket(t *testing.T) {
	c := NewCollector(16)
	for i := 0; i < 3; i++ {
		c.Record(Event{
			Verb: "STORE", Depot: "d1:6714", Latency: 2 * time.Millisecond,
			Trace: fmt.Sprintf("%016d", i), Span: "01",
		})
	}
	var b strings.Builder
	WriteMetrics(&b, c.CollectorMetrics("ibp_client_"))
	if !strings.Contains(b.String(), `# {trace_id="0000000000000002"}`) {
		t.Errorf("bucket should carry the most recent trace, got:\n%s", b.String())
	}
}

func TestCollectorRingDroppedAccounting(t *testing.T) {
	c := NewCollector(4)
	for i := 0; i < 10; i++ {
		c.Record(Event{Verb: "PROBE", Depot: "d1:6714"})
	}
	if got := c.Dropped(); got != 6 {
		t.Fatalf("Dropped() = %d, want 6 (10 records into a 4-slot ring)", got)
	}
	var b strings.Builder
	WriteMetrics(&b, c.CollectorMetrics("ibp_client_"))
	if !strings.Contains(b.String(), `obs_ring_dropped_total{ring="events"} 6`) {
		t.Errorf("exposition missing ring-dropped counter:\n%s", b.String())
	}
}

func TestFlightRecorderDroppedAccounting(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 9; i++ {
		fr.Record(Event{Kind: KindLog, Note: "m"})
	}
	if got := fr.Dropped(); got != 5 {
		t.Fatalf("Dropped() = %d, want 5 (9 entries into a 4-slot ring)", got)
	}
	var b strings.Builder
	WriteMetrics(&b, fr.RingMetrics())
	if !strings.Contains(b.String(), `obs_ring_dropped_total{ring="flight"} 5`) {
		t.Errorf("RingMetrics missing flight ring counter:\n%s", b.String())
	}
}

// TestScrapeDuringConcurrentRecords is the scrape-safety regression: a
// /metrics render must never observe a cell mid-update (run under -race).
func TestScrapeDuringConcurrentRecords(t *testing.T) {
	c := NewCollector(32)
	fr := NewFlightRecorder(32)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Record(Event{
					Verb: "LOAD", Depot: fmt.Sprintf("d%d:6714", g),
					Latency: time.Duration(i%50) * time.Millisecond,
					Trace:   "aabbccdd00112233", Span: "01",
				})
				fr.Record(Event{Kind: KindLog, Note: "op"})
				i++
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		WriteMetrics(&b, append(c.CollectorMetrics("ibp_client_"), fr.RingMetrics()...))
		if b.Len() == 0 {
			t.Fatal("empty exposition during concurrent records")
		}
	}
	close(stop)
	wg.Wait()
}
