package core

import (
	"io"
	"sync/atomic"
	"testing"

	"repro/internal/exnode"
	"repro/internal/geo"
	"repro/internal/lbone"
	"repro/internal/nws"
)

// countingSource counts L-Bone queries.
type countingSource struct {
	DepotSource
	n atomic.Int64
}

func (c *countingSource) Query(req lbone.Requirements) ([]lbone.DepotInfo, error) {
	c.n.Add(1)
	return c.DepotSource.Query(req)
}

// TestDownloadAsksLBoneOnlyWhenRankingNeedsIt pins when a download looks
// up depot locations: once per download when a ranking compares static
// distances, never when it does not. Rankings are the same either way.
func TestDownloadAsksLBoneOnlyWhenRankingNeedsIt(t *testing.T) {
	e := newEnv(t)
	e.addDepot("FAR", geo.UCSB, nil)
	e.addDepot("NEAR", geo.UNC, nil)
	tl := e.tools(geo.UTK, false)
	src := &countingSource{DepotSource: tl.LBone}
	tl.LBone = src
	data := payload(96 << 10)
	both, err := tl.Upload("both", data, UploadOptions{Replicas: 2, Fragments: 3, Depots: e.infosFor("FAR", "NEAR")})
	if err != nil {
		t.Fatal(err)
	}
	one, err := tl.Upload("one", data, UploadOptions{Replicas: 1, Fragments: 3, Depots: e.infosFor("FAR")})
	if err != nil {
		t.Fatal(err)
	}

	queries := func(f func() *Report, wantDepot string) int64 {
		t.Helper()
		before := src.n.Load()
		rep := f()
		for _, er := range rep.Extents {
			if er.Depot != wantDepot {
				t.Fatalf("extent [%d,%d) came from %s, want %s", er.Start, er.End, er.Depot, wantDepot)
			}
		}
		return src.n.Load() - before
	}
	download := func(x *exnode.ExNode, opts DownloadOptions) func() *Report {
		return func() *Report {
			_, rep, err := tl.Download(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
	}
	stream := func(x *exnode.ExNode, opts DownloadOptions) func() *Report {
		return func() *Report {
			r, rep, err := tl.OpenReader(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, r); err != nil {
				t.Fatal(err)
			}
			r.Close()
			return rep
		}
	}

	// Static ranking over two replicas: one lookup per download, however
	// many extents and workers share it.
	if n := queries(download(both, DownloadOptions{}), "NEAR"); n != 1 {
		t.Fatalf("static download over 2 replicas made %d L-Bone queries, want 1", n)
	}
	if n := queries(download(both, DownloadOptions{Parallelism: 3}), "NEAR"); n != 1 {
		t.Fatalf("parallel static download made %d L-Bone queries, want 1", n)
	}
	if n := queries(stream(both, DownloadOptions{Readahead: 2}), "NEAR"); n != 1 {
		t.Fatalf("static stream made %d L-Bone queries, want 1", n)
	}
	// One candidate per extent: nothing to compare.
	if n := queries(download(one, DownloadOptions{}), "FAR"); n != 0 {
		t.Fatalf("static download over 1 replica made %d L-Bone queries, want 0", n)
	}

	// NWS without forecasts ranks statically, so it needs the lookup.
	tl.NWS = nws.NewService(e.clk, 128)
	if n := queries(download(both, DownloadOptions{Strategy: StrategyNWS}), "NEAR"); n != 1 {
		t.Fatalf("NWS download without forecasts made %d L-Bone queries, want 1", n)
	}
	// One unforecasted candidate ranks below the forecasted one without
	// a distance comparison; with both forecasted none is needed either.
	tl.NWS = nws.NewService(e.clk, 128)
	tl.NWS.Record("UTK", e.depots["FAR"].Addr(), nws.Bandwidth, 50)
	if n := queries(download(both, DownloadOptions{Strategy: StrategyNWS}), "FAR"); n != 0 {
		t.Fatalf("NWS download with one forecast made %d L-Bone queries, want 0", n)
	}
	tl.NWS.Record("UTK", e.depots["NEAR"].Addr(), nws.Bandwidth, 0.01)
	if n := queries(download(both, DownloadOptions{Strategy: StrategyNWS}), "FAR"); n != 0 {
		t.Fatalf("NWS download with forecasts made %d L-Bone queries, want 0", n)
	}
}
