package core

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
)

// TestAugmentReleasesDownloadBuffer is the allocation regression for the
// repair read path, in the spirit of TestStreamReaderPooledAllocs: Augment
// downloads the current contents into a pool-backed buffer and must return
// it once the repair upload no longer needs it. The old code dropped the
// buffer on the floor, so every repair pass drained the pool by one
// file-sized buffer and steady-state repair allocated a fresh multi-MiB
// buffer per pass.
//
// The accounting: one augment+trim cycle moves the file once through the
// depot's backend (one ~fileSize append per store — unavoidable, identical
// either way). With the buffer returned, the client's download Get and the
// depot's wire buffers all recycle, so a cycle costs ~1x fileSize of fresh
// allocation. With the leak, the pool loses a file-class buffer per cycle
// and has to re-make it, pushing the steady-state cost toward 2x. The
// threshold sits midway.
func TestAugmentReleasesDownloadBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("byte-level allocation accounting is skewed by race-detector instrumentation")
	}
	// bufpool keeps one sync.Pool per size class, and a sync.Pool's
	// per-P private slot is invisible to Gets running on another P. With
	// several Ps, a file-class buffer Put on one P is now and then missed
	// by the next Get on another, which allocates a fresh one: about one
	// extra file-sized buffer per measured window, depending on where the
	// scheduler ran each goroutine. One P makes every returned buffer
	// visible to the next Get, so the count measures only what the code
	// keeps or drops.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	e := newEnv(t)
	e.addDepot("A", geo.UTK, nil)
	e.addDepot("B", geo.UCSD, nil)
	tl := e.tools(geo.UTK, false)

	const fileSize = 2 << 20
	data := payload(fileSize)
	x, err := tl.Upload("allocs.dat", data, UploadOptions{
		Depots: e.infosFor("A"), Duration: 48 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One repair cycle: add a replica on B, then drop it again so every
	// cycle starts from the same single-replica state.
	cycle := func() {
		aug, err := tl.Augment(x, AugmentOptions{
			Replicas: 1, Depots: e.infosFor("B"), Duration: 48 * time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		r := 1
		if _, err := tl.Trim(aug, TrimOptions{Replica: &r, DeleteFromIBP: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up primes the buffer pool and both connection pools.
	cycle()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 6
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	perCycle := (after.TotalAlloc - before.TotalAlloc) / runs
	if perCycle > fileSize*3/2 {
		t.Fatalf("augment cycle allocates %d bytes (want <= %d): the download buffer is not returning to the pool",
			perCycle, fileSize*3/2)
	}
}
