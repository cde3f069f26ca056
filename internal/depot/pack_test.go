package depot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ibp"
)

func TestPackBackendRoundTrip(t *testing.T) {
	pb := newPack(t, t.TempDir(), 0)
	h, err := pb.Create("k1", 1024)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if n, err := h.Append([]byte("pack")); err != nil || n != 10 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	got := make([]byte, 10)
	if err := h.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello pack" {
		t.Fatalf("read back %q", got)
	}
	var sink bytes.Buffer
	if n, err := h.WriteSegment(&sink, 6, 4); err != nil || n != 4 || sink.String() != "pack" {
		t.Fatalf("WriteSegment: n=%d err=%v got %q", n, err, sink.String())
	}
	if _, err := h.Append(bytes.Repeat([]byte("x"), 2048)); err != ErrAllocFull {
		t.Fatalf("overfull append err = %v, want ErrAllocFull", err)
	}
}

func TestPackBackendBundleRollover(t *testing.T) {
	// A tiny bundle cap forces rollover: three 400-byte reservations cannot
	// share a 1000-byte bundle, so the third lands in bundle 1.
	dir := t.TempDir()
	pb := newPack(t, dir, 1000)
	for i := 0; i < 3; i++ {
		h, err := pb.Create(fmt.Sprintf("k%d", i), 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := pb.Stats().Bundles; got != 2 {
		t.Fatalf("bundle count = %d, want 2", got)
	}
	// An allocation above the bundle cap gets a bundle of its own, sized
	// to it, and round-trips; it does not seal the active bundle.
	h, err := pb.Create("huge", 4096)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789"), 300)
	if _, err := h.Append(big); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(big))
	if err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversize read back: err=%v equal=%v", err, bytes.Equal(got, big))
	}
	hugePath := filepath.Join(dir, "bundle-000002.pack")
	if st, err := os.Stat(hugePath); err != nil || st.Size() != 4096 {
		t.Fatalf("oversize bundle file: %v, %v", st, err)
	}
	if pb.Stats().Bundles != 3 || pb.active.seq != 1 {
		t.Fatalf("bundles = %d, active = %d; want 3 with bundle 1 still active", pb.Stats().Bundles, pb.active.seq)
	}
	// Its file is gone as soon as it is removed.
	if err := pb.Remove("huge"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(hugePath); !os.IsNotExist(err) {
		t.Fatalf("oversize bundle after Remove: %v", err)
	}
	// Killing both allocations of bundle 0 deletes its file; the active
	// bundle stays even when empty.
	if err := pb.Remove("k0"); err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("k1"); err != nil {
		t.Fatal(err)
	}
	if got := pb.Stats().Bundles; got != 1 {
		t.Fatalf("bundle count after removes = %d, want 1", got)
	}
}

func TestPackBackendReplay(t *testing.T) {
	dir := t.TempDir()
	pb, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	h, err := pb.Create("keep", 400)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append([]byte("survives restart")); err != nil {
		t.Fatal(err)
	}
	if err := pb.SaveMeta("keep", AllocMeta{MaxSize: 400, Expires: 99, Reliability: "HARD", RefCount: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Create("gone", 400); err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}

	pb2, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer pb2.Close()
	h2, err := pb2.Open("keep", 400)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Len() != int64(len("survives restart")) {
		t.Fatalf("replayed len = %d", h2.Len())
	}
	got := make([]byte, h2.Len())
	if err := h2.ReadAt(got, 0); err != nil || string(got) != "survives restart" {
		t.Fatalf("replayed read: %q, %v", got, err)
	}
	if _, err := pb2.Open("gone", 400); err == nil {
		t.Fatal("removed key must not replay")
	}
	metas := pb2.LoadMeta()
	if m, ok := metas["keep"]; !ok || m.Expires != 99 || m.RefCount != 1 {
		t.Fatalf("replayed meta = %+v", metas)
	}
	// Appends must continue where the journal left off.
	if n, err := h2.Append([]byte("!")); err != nil || n != int64(len("survives restart")+1) {
		t.Fatalf("append after replay: n=%d err=%v", n, err)
	}
}

// TestDepotOnPackBackendSurvivesRestart runs the whole daemon on the pack
// engine: capabilities minted before a restart keep working after it. The
// restarted depot rebinds the original port so the minted capabilities
// still dial it. A 4 KiB bundle cap makes the 64 KiB allocation oversize,
// so it lives in a bundle of its own, which DELETE removes.
func TestDepotOnPackBackendSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	const bundleCap = 4 << 10
	pb, err := NewPackBackend(dir, bundleCap)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Serve("127.0.0.1:0", Config{Secret: testSecret, Capacity: 64 << 20, Backend: pb})
	if err != nil {
		t.Fatal(err)
	}
	addr := d.Addr()
	c := ibp.NewClient()
	payload := []byte("packed and durable")
	set, err := c.Allocate(addr, 1<<10, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Store(set.Write, payload); err != nil {
		t.Fatal(err)
	}
	big, err := c.Allocate(addr, 1<<16, time.Hour, ibp.Hard)
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{1, 2, 3, 4}, 4096)
	if _, err := c.Store(big.Write, data); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Load(big.Read, 8, 100); err != nil || !bytes.Equal(got, data[8:108]) {
		t.Fatalf("oversize read mismatch: %v", err)
	}
	d.Close()
	pb.Close()

	pb2, err := NewPackBackend(dir, bundleCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb2.Close() })
	d2, err := Serve(addr, Config{Secret: testSecret, Capacity: 64 << 20, Backend: pb2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d2.Close() })
	if d2.Metrics().Restores.Load() != 2 {
		t.Fatalf("restores = %d, want 2", d2.Metrics().Restores.Load())
	}
	c2 := ibp.NewClient()
	got, err := c2.Load(set.Read, 0, int64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read after restart: %q", got)
	}
	if got, err := c2.Load(big.Read, 8, 100); err != nil || !bytes.Equal(got, data[8:108]) {
		t.Fatalf("oversize read after restart mismatch: %v", err)
	}
	bundles := func() int {
		m, err := filepath.Glob(filepath.Join(dir, "bundle-*.pack"))
		if err != nil {
			t.Fatal(err)
		}
		return len(m)
	}
	if n := bundles(); n != 2 {
		t.Fatalf("bundle files = %d, want 2", n)
	}
	if _, err := c2.Delete(big.Manage); err != nil {
		t.Fatal(err)
	}
	if n := bundles(); n != 1 {
		t.Fatalf("bundle files after DELETE = %d, want 1", n)
	}
}

// TestPackBackendTornTailKeepsLaterRecords pins the crash-restart path: a
// crash mid-append leaves a torn final journal line, and the allocation
// acknowledged after the restart must survive the restart after that.
// Appending straight after the torn bytes glues the first new record onto
// them, and the next replay drops it.
func TestPackBackendTornTailKeepsLaterRecords(t *testing.T) {
	dir := t.TempDir()
	pb, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}
	j, err := os.OpenFile(filepath.Join(dir, packJournalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.WriteString(`{"op":"create","key":"to`); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	pb2, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pb2.Create("acked", 100); err != nil {
		t.Fatal(err)
	}
	if err := pb2.SaveMeta("acked", AllocMeta{MaxSize: 100, Expires: 99, Reliability: "HARD", RefCount: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pb2.Close(); err != nil {
		t.Fatal(err)
	}

	pb3, err := NewPackBackend(dir, 1000)
	if err != nil {
		t.Fatal(err)
	}
	defer pb3.Close()
	if _, err := pb3.Open("acked", 100); err != nil {
		t.Fatal(err)
	}
	if _, err := pb3.Open("a", 100); err != nil {
		t.Fatal(err)
	}
}

// TestPackBackendCorruptRecordIsAnError: a complete journal line that does
// not decode is corruption, not a torn tail. Opening the store fails and
// names the line's byte offset instead of skipping it and trusting the
// records after it.
func TestPackBackendCorruptRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	pb := newPack(t, dir, 1000)
	if _, err := pb.Create("a", 100); err != nil {
		t.Fatal(err)
	}
	if err := pb.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, packJournalName)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	j, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.WriteString("{\"op\":\"cre\x00ate\"}\n{\"op\":\"create\",\"key\":\"b\",\"max\":100}\n"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = NewPackBackend(dir, 1000)
	if want := fmt.Sprintf("byte offset %d", st.Size()); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open over a corrupt record: %v, want an error naming %q", err, want)
	}
}

// TestPackBackendRefusesFileBackendDir: a directory written by the retired
// one-file-per-allocation backend is refused by name, rather than served
// as an empty store that answers NOT_FOUND for every capability it held.
func TestPackBackendRefusesFileBackendDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"0123abcd.ibp", "0123abcd.meta"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := NewPackBackend(dir, 0)
	if err == nil || !strings.Contains(err.Error(), "0123abcd.ibp") || !strings.Contains(err.Error(), "0123abcd.meta") {
		t.Fatalf("open over file-backend files: %v, want an error naming them", err)
	}
	if _, err := os.Stat(filepath.Join(dir, packJournalName)); !os.IsNotExist(err) {
		t.Fatalf("refused directory gained a journal: %v", err)
	}
}

// gatedWriter holds a streamed segment mid-write until resumed, then reads
// every page of it, as a socket draining a large LOAD would.
type gatedWriter struct {
	started, resume chan struct{}
	sum             int
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	close(w.started)
	<-w.resume
	for i := 0; i < len(p); i += 4096 {
		w.sum += int(p[i])
	}
	return len(p), nil
}

// TestPackBackendRemoveDuringStreamedLoad removes the last live allocation
// of a sealed bundle while a LOAD of it is still streaming out of the
// bundle's mapping. The stream must finish with the right bytes; dropping
// the bundle must not unmap the memory under it.
func TestPackBackendRemoveDuringStreamedLoad(t *testing.T) {
	pb, err := NewPackBackend(t.TempDir(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer pb.Close()
	h, err := pb.Create("a", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(bytes.Repeat([]byte{1}, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Create("b", 1); err != nil { // seals bundle 0
		t.Fatal(err)
	}
	w := &gatedWriter{started: make(chan struct{}), resume: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := h.WriteSegment(w, 0, 1<<20)
		done <- err
	}()
	<-w.started
	if err := pb.Remove("a"); err != nil {
		t.Fatal(err)
	}
	close(w.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.sum != (1<<20)/4096 {
		t.Fatalf("streamed page sum = %d, want %d", w.sum, (1<<20)/4096)
	}
}

// fileDiskBytes returns the bytes the filesystem has allocated to path
// (st_blocks), which hole punching lowers and the file length does not.
func fileDiskBytes(t *testing.T, path string) int64 {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("the pack engine punches holes on Linux only")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return diskBytes(f)
}

// fillPack creates key with room for n bytes and fills it with v.
func fillPack(t *testing.T, pb *PackBackend, key string, n int, v byte) Handle {
	t.Helper()
	h, err := pb.Create(key, int64(n))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Append(bytes.Repeat([]byte{v}, n)); err != nil {
		t.Fatal(err)
	}
	return h
}

// checkFilled reads all of h back, by ReadAt and by WriteSegment, and
// fails unless every byte is v.
func checkFilled(t *testing.T, h Handle, n int, v byte) {
	t.Helper()
	want := bytes.Repeat([]byte{v}, n)
	got := make([]byte, n)
	if err := h.ReadAt(got, 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadAt: err=%v, bytes intact=%v", err, bytes.Equal(got, want))
	}
	var sink bytes.Buffer
	if _, err := h.WriteSegment(&sink, 0, int64(n)); err != nil || !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("WriteSegment: err=%v, bytes intact=%v", err, bytes.Equal(sink.Bytes(), want))
	}
}

// TestPackBackendRemovePunchesHole: removing an allocation from the active
// bundle hands its blocks back to the filesystem at once, instead of
// holding them until the whole bundle is dead. The allocation next to it
// in the same bundle still reads back intact.
func TestPackBackendRemovePunchesHole(t *testing.T) {
	const res = 256 << 10
	pb := newPack(t, t.TempDir(), 4*res)
	fillPack(t, pb, "a", res, 0xa5)
	b := fillPack(t, pb, "b", res, 0x5a)
	path := pb.bundlePath(0)
	before := fileDiskBytes(t, path)
	if err := pb.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if pb.Stats().Bundles != 1 {
		t.Fatalf("bundles = %d, want the active bundle kept", pb.Stats().Bundles)
	}
	if drop := before - fileDiskBytes(t, path); drop < res {
		t.Fatalf("bundle disk bytes dropped by %d after removing a %d-byte reservation", drop, res)
	}
	checkFilled(t, b, res, 0x5a)
}

// TestPackBackendReplayPunchesDeadGaps reopens a store written before
// removes punched holes: the bundle still holds the bytes of two removed
// allocations. Replay frees the gaps between live reservations, and never
// a range a remove record names that a later allocation reuses.
func TestPackBackendReplayPunchesDeadGaps(t *testing.T) {
	const q = 64 << 10
	dir := t.TempDir()
	// [0,q) a live; [q,2q) gone, removed; [2q,3q) c live; [3q,4q) old,
	// removed, then reused by reuse after a restart; [4q,5q) tail, removed.
	data := make([]byte, 5*q)
	for i, v := range []byte{0x11, 0x22, 0x33, 0x44, 0x55} {
		copy(data[i*q:], bytes.Repeat([]byte{v}, q))
	}
	bundle := filepath.Join(dir, "bundle-000000.pack")
	if err := os.WriteFile(bundle, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(bundle, 16*q); err != nil {
		t.Fatal(err)
	}
	var journal strings.Builder
	create := func(key string, off int) {
		fmt.Fprintf(&journal, "{\"op\":\"create\",\"key\":%q,\"off\":%d,\"max\":%d}\n{\"op\":\"size\",\"key\":%q,\"size\":%d}\n", key, off, q, key, q)
	}
	remove := func(key string) { fmt.Fprintf(&journal, "{\"op\":\"remove\",\"key\":%q}\n", key) }
	create("a", 0)
	create("gone", q)
	create("c", 2*q)
	create("old", 3*q)
	create("tail", 4*q)
	remove("gone")
	remove("old")
	remove("tail")
	create("reuse", 3*q)
	if err := os.WriteFile(filepath.Join(dir, packJournalName), []byte(journal.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	before := fileDiskBytes(t, bundle)

	pb := newPack(t, dir, 16*q)
	if drop := before - fileDiskBytes(t, bundle); drop < 2*q {
		t.Fatalf("replay freed %d bytes; the two dead reservations hold %d", drop, 2*q)
	}
	for key, v := range map[string]byte{"a": 0x11, "c": 0x33, "reuse": 0x44} {
		h, err := pb.Open(key, q)
		if err != nil {
			t.Fatal(err)
		}
		checkFilled(t, h, q, v)
	}
}

// TestPackBackendReplayRefusesOverlap: two live reservations that share
// bytes of one bundle are corruption; punching the gaps around one would
// zero the other's bytes. Replay fails and names the second record.
func TestPackBackendReplayRefusesOverlap(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bundle-000000.pack"), make([]byte, 1000), 0o644); err != nil {
		t.Fatal(err)
	}
	first := "{\"op\":\"create\",\"key\":\"a\",\"max\":100}\n"
	journal := first + "{\"op\":\"create\",\"key\":\"b\",\"off\":50,\"max\":100}\n"
	if err := os.WriteFile(filepath.Join(dir, packJournalName), []byte(journal), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewPackBackend(dir, 1000)
	if want := fmt.Sprintf("byte offset %d", len(first)); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open over overlapping reservations: %v, want an error naming %q", err, want)
	}
}

// TestPackBackendStreamedLoadRacingRemove removes an allocation of the
// active bundle while LOADs stream it. A read that began before the remove
// finishes with the original bytes, because the punch waits for it; a
// read that starts after the remove fails. No read ever sees the zeros of
// a punched range.
func TestPackBackendStreamedLoadRacingRemove(t *testing.T) {
	pb := newPack(t, t.TempDir(), 4<<20)
	h := fillPack(t, pb, "a", 1<<20, 1)
	fillPack(t, pb, "b", 4096, 2)
	w := &gatedWriter{started: make(chan struct{}), resume: make(chan struct{})}
	done := make(chan error, 1)
	go func() {
		_, err := h.WriteSegment(w, 0, 1<<20)
		done <- err
	}()
	<-w.started
	if err := pb.Remove("a"); err != nil {
		t.Fatal(err)
	}
	close(w.resume)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w.sum != (1<<20)/4096 {
		t.Fatalf("streamed page sum = %d, want %d", w.sum, (1<<20)/4096)
	}
	if err := h.ReadAt(make([]byte, 10), 0); err == nil {
		t.Fatal("a read that starts after Remove succeeded")
	}

	// The same under a real race: streams of c start before, during and
	// after its removal; each returns the original bytes or an error.
	const n = 256 << 10
	c := fillPack(t, pb, "c", n, 7)
	want := bytes.Repeat([]byte{7}, n)
	var wg, streaming sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		streaming.Add(1)
		go func() {
			defer wg.Done()
			for first := true; ; first = false {
				var sink bytes.Buffer
				_, err := c.WriteSegment(&sink, 0, n)
				if err == nil && !bytes.Equal(sink.Bytes(), want) {
					t.Error("a stream of c returned altered bytes")
				}
				if first {
					streaming.Done()
				}
				if err != nil || t.Failed() {
					return
				}
			}
		}()
	}
	streaming.Wait()
	if err := pb.Remove("c"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestPackBackendAppendAfterRemoveFails: a STORE that reaches a removed
// allocation through a handle resolved before the remove must not write
// into the freed range, which would allocate blocks again.
func TestPackBackendAppendAfterRemoveFails(t *testing.T) {
	const res = 256 << 10
	pb := newPack(t, t.TempDir(), 4*res)
	h := fillPack(t, pb, "a", 4096, 3)
	fillPack(t, pb, "b", 4096, 4)
	if _, err := pb.Create("c", res); err != nil {
		t.Fatal(err)
	}
	hc, err := pb.Open("c", res)
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Remove("c"); err != nil {
		t.Fatal(err)
	}
	path := pb.bundlePath(0)
	before := fileDiskBytes(t, path)
	if _, err := hc.Append(bytes.Repeat([]byte{9}, res)); err == nil {
		t.Fatal("Append after Remove succeeded")
	}
	if after := fileDiskBytes(t, path); after > before {
		t.Fatalf("bundle disk bytes grew from %d to %d on an Append after Remove", before, after)
	}
	checkFilled(t, h, 4096, 3)
}
