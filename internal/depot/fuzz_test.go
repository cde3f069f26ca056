package depot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzPackReplay feeds arbitrary journal bytes to NewPackBackend. It must
// either refuse the store or build an index in which every allocation lies
// inside its bundle file; an allocation created on that index must then
// survive a close and a reopen, alongside everything the first replay
// restored. Bundles 0 and 1 exist at the bundle cap and bundle 2 at three
// times it, so journals that name them, oversize allocations included,
// can replay. Every fixture byte is nonzero, and the written bytes of every
// live allocation must read back unchanged after each replay: replay
// punches holes only where no live allocation lies.
func FuzzPackReplay(f *testing.F) {
	const bundleCap = 4096
	pattern := func(off int64) byte { return byte(off%251 + 1) }
	f.Fuzz(func(t *testing.T, journal []byte) {
		dir := t.TempDir()
		for seq, size := range []int64{bundleCap, bundleCap, 3 * bundleCap} {
			fill := make([]byte, size)
			for i := range fill {
				fill[i] = pattern(int64(i))
			}
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("bundle-%06d.pack", seq)), fill, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, packJournalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		pb, err := NewPackBackend(dir, bundleCap)
		if err != nil {
			return
		}
		sizes := map[string]int64{}
		for key, e := range pb.index {
			st, err := os.Stat(pb.bundlePath(e.bundle.seq))
			if err != nil {
				t.Fatalf("%s: bundle %d: %v", key, e.bundle.seq, err)
			}
			if e.off < 0 || e.size < 0 || e.size > e.max || e.off+e.max > st.Size() {
				t.Fatalf("%s: [%d,+%d) size %d does not lie inside bundle %d (%d bytes)",
					key, e.off, e.max, e.size, e.bundle.seq, st.Size())
			}
			sizes[key] = e.size
		}
		intact := func(pb *PackBackend, key string) {
			t.Helper()
			e := pb.index[key]
			got := make([]byte, e.size)
			if err := (&packHandle{b: pb, key: key, e: e}).ReadAt(got, 0); err != nil {
				t.Fatalf("%s: read after replay: %v", key, err)
			}
			for i, v := range got {
				if want := pattern(e.off + int64(i)); v != want {
					t.Fatalf("%s: byte %d = %#x after replay, want %#x", key, i, v, want)
				}
			}
		}
		for key := range sizes {
			intact(pb, key)
		}
		if pb.nextSeq > maxBundleSeq {
			pb.Close()
			return // no bundle sequence left for a new allocation
		}
		key := "fuzz-new"
		for pb.index[key] != nil {
			key += "+"
		}
		h, err := pb.Create(key, 100)
		if err != nil {
			t.Fatalf("create after replay: %v", err)
		}
		if _, err := h.Append([]byte("fuzz")); err != nil {
			t.Fatalf("append after replay: %v", err)
		}
		if err := pb.Close(); err != nil {
			t.Fatal(err)
		}

		pb2, err := NewPackBackend(dir, bundleCap)
		if err != nil {
			t.Fatalf("reopen after create: %v", err)
		}
		defer pb2.Close()
		h2, err := pb2.Open(key, 100)
		if err != nil {
			t.Fatalf("reopen lost the new allocation: %v", err)
		}
		got := make([]byte, 4)
		if err := h2.ReadAt(got, 0); err != nil || !bytes.Equal(got, []byte("fuzz")) {
			t.Fatalf("new allocation read back %q, %v", got, err)
		}
		for k, size := range sizes {
			if e := pb2.index[k]; e == nil || e.size != size {
				t.Fatalf("reopen changed %s: had size %d, now %+v", k, size, e)
			}
			intact(pb2, k)
		}
	})
}
