package depot

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"
)

// netDial is a test helper shared with depot_test.go.
func netDial(addr string) (net.Conn, error) {
	return net.Dial("tcp", addr)
}

func backends(t *testing.T) map[string]Backend {
	return map[string]Backend{
		"mem":  NewMemBackend(),
		"pack": newPack(t, t.TempDir(), 0),
	}
}

// newPack opens a pack store that is closed at test end.
func newPack(t *testing.T, dir string, bundleCap int64) *PackBackend {
	t.Helper()
	pb, err := NewPackBackend(dir, bundleCap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pb.Close() })
	return pb
}

func TestBackendAppendRead(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			h, err := b.Create("aaaaaaaaaaaaaaaa", 1024)
			if err != nil {
				t.Fatal(err)
			}
			if h.Len() != 0 {
				t.Fatal("fresh handle should be empty")
			}
			if _, err := h.Append([]byte("hello ")); err != nil {
				t.Fatal(err)
			}
			n, err := h.Append([]byte("world"))
			if err != nil {
				t.Fatal(err)
			}
			if n != 11 || h.Len() != 11 {
				t.Fatalf("len = %d / %d, want 11", n, h.Len())
			}
			buf := make([]byte, 5)
			if err := h.ReadAt(buf, 6); err != nil {
				t.Fatal(err)
			}
			if string(buf) != "world" {
				t.Fatalf("read %q", buf)
			}
			// Reads past the end fail.
			if err := h.ReadAt(make([]byte, 2), 10); err == nil {
				t.Fatal("read past end should fail")
			}
			if err := h.ReadAt(make([]byte, 1), -1); err == nil {
				t.Fatal("negative offset should fail")
			}
		})
	}
}

func TestBackendCapacity(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			h, err := b.Create("bbbbbbbbbbbbbbbb", 4)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.Append([]byte("12345")); err != ErrAllocFull {
				t.Fatalf("got %v, want ErrAllocFull", err)
			}
			if _, err := h.Append([]byte("1234")); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackendDuplicateAndRemove(t *testing.T) {
	for name, b := range backends(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := b.Create("cccccccccccccccc", 10); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Create("cccccccccccccccc", 10); err == nil {
				t.Fatal("duplicate create should fail")
			}
			if err := b.Remove("cccccccccccccccc"); err != nil {
				t.Fatal(err)
			}
			if err := b.Remove("cccccccccccccccc"); err == nil {
				t.Fatal("double remove should fail")
			}
			// Key is reusable after removal.
			if _, err := b.Create("cccccccccccccccc", 10); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBackendAppendReadProperty(t *testing.T) {
	// Property: any sequence of appends reads back as their concatenation,
	// identically on both backends.
	pack := newPack(t, t.TempDir(), 0)
	mem := NewMemBackend()
	i := 0
	f := func(chunks [][]byte) bool {
		i++
		key := keyFor(i)
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		if len(want) > 1<<16 {
			return true
		}
		for _, b := range []Backend{mem, pack} {
			h, err := b.Create(key, 1<<16)
			if err != nil {
				return false
			}
			for _, c := range chunks {
				if _, err := h.Append(c); err != nil {
					return false
				}
			}
			if h.Len() != int64(len(want)) {
				return false
			}
			got := make([]byte, len(want))
			if len(want) > 0 {
				if err := h.ReadAt(got, 0); err != nil {
					return false
				}
			}
			if !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func keyFor(i int) string {
	const hexdigits = "0123456789abcdef"
	b := make([]byte, 32)
	for j := range b {
		b[j] = hexdigits[(i>>(j%4))&0xf]
	}
	return string(b)
}
