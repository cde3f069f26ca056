package obsfleet_test

import (
	"bytes"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/depot"
	"repro/internal/ibp"
	"repro/internal/lbone"
	"repro/internal/obs"
	"repro/internal/obsfleet"
)

// TestClientAndDepotShareOneRecord drives traced operations against a real
// depot and checks that both sides tell the same story in the one record
// shape: the client's Event.Server (parsed from the ts= trailer) and the
// depot's retained KindSpan Event agree on span ID, queue, backend, total
// and bytes; the depot's /trace/<id> serves that Event, and obsd's
// /fleet/trace/<id> carries it unchanged.
func TestClientAndDepotShareOneRecord(t *testing.T) {
	d, err := depot.Serve("127.0.0.1:0", depot.Config{
		Secret: []byte("one-record-test"), Capacity: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	depotObs := httptest.NewServer(d.Surface().Mux())
	defer depotObs.Close()

	root := obs.NewRootSpan()
	col := obs.NewCollector(16)
	c := ibp.NewClient(ibp.WithObserver(col)).WithSpan(root)
	defer c.Close()
	caps, err := c.Allocate(d.Addr(), 512, time.Hour, ibp.Soft)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x3C}, 512)
	if _, err := c.Store(caps.Write, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Load(caps.Read, 0, 512); err != nil {
		t.Fatal(err)
	}

	var depotSide []obs.Event
	getInto(t, depotObs.URL+"/trace/"+root.TraceID, &depotSide)
	depotBySpan := map[string]obs.Event{}
	for _, e := range depotSide {
		if e.Kind == obs.KindSpan && e.Server != nil {
			depotBySpan[e.Server.SpanID] = e
		}
	}

	a := obsfleet.New(obsfleet.Config{Static: []lbone.ControlInfo{{
		Addr: strings.TrimPrefix(depotObs.URL, "http://"), Component: "ibp-depot", Name: "D1",
	}}})
	a.Sweep()
	ui := httptest.NewServer(a.Surface().Mux())
	defer ui.Close()
	var ft obsfleet.FleetTrace
	getInto(t, ui.URL+"/fleet/trace/"+root.TraceID, &ft)
	fleetSide := map[string]obs.Event{}
	for _, s := range ft.Spans {
		if s.Kind == obs.KindSpan && s.Server != nil {
			fleetSide[s.Server.SpanID] = s.Event
		}
	}

	clientSide := col.TraceEvents(root.TraceID)
	if len(clientSide) != 3 {
		t.Fatalf("client recorded %d traced events, want 3", len(clientSide))
	}
	for _, ce := range clientSide {
		cs := ce.Server
		if cs == nil {
			t.Fatalf("client %s event carries no server span", ce.Verb)
		}
		de, ok := depotBySpan[cs.SpanID]
		if !ok {
			t.Fatalf("depot /trace has no span %s for client %s; depot served %+v", cs.SpanID, ce.Verb, depotSide)
		}
		ds := de.Server
		if de.Span != cs.SpanID || ds.Queue != cs.Queue || ds.Backend != cs.Backend ||
			ds.Total != cs.Total || ds.Bytes != cs.Bytes {
			t.Errorf("%s: depot record span=%s %+v, client trailer %+v", ce.Verb, de.Span, *ds, *cs)
		}
		if de.Verb != ce.Verb || de.Parent != ce.Span || de.Trace != ce.Trace || de.Bytes != cs.Bytes {
			t.Errorf("%s: depot record %+v does not match client event %+v", ce.Verb, de, ce)
		}
		if fe, ok := fleetSide[cs.SpanID]; !ok || !reflect.DeepEqual(fe, de) {
			t.Errorf("%s: /fleet/trace record = %+v (found %v), want the depot's %+v", ce.Verb, fe, ok, de)
		}
	}
	if ce := clientSide[2]; ce.Verb != ibp.OpLoad || ce.Server.Bytes != 512 {
		t.Errorf("LOAD trailer = %+v, want 512 bytes", ce.Server)
	}
}
