// Package depot implements the IBP depot daemon — the server side of the
// Internet Backplane Protocol (paper §2.1).
//
// A depot turns local storage (memory or a pack-engine directory) into
// network-visible, time-limited, append-only byte arrays. It enforces the
// depot's exposed resource limits: total capacity, maximum allocation
// duration, and allocation expiry.
package depot

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// Backend abstracts the local storage a depot serves ("Local Access" /
// "Physical" layers of the stack diagram). Implementations must be safe for
// concurrent use across distinct handles; per-handle calls are serialized
// by the depot.
type Backend interface {
	// Create makes an empty byte array able to hold up to maxSize bytes.
	Create(key string, maxSize int64) (Handle, error)
	// Remove frees the byte array's storage.
	Remove(key string) error
}

// Handle is one byte array held by a backend.
type Handle interface {
	// Append writes p at the current end and returns the new length. The
	// callee must not retain p past return (p is typically a pooled buffer
	// the depot releases immediately after); copy if the bytes are needed
	// later.
	Append(p []byte) (int64, error)
	// ReadAt fills p from the given offset. Short reads are errors.
	ReadAt(p []byte, off int64) error
	// Len returns the bytes written so far.
	Len() int64
	// WriteSegment streams the byte range [off, off+n) directly to w
	// without materializing it in an intermediate buffer. Because byte
	// arrays are append-only, a written range is immutable and may be
	// streamed outside any handle lock; the depot uses this to serve LOAD
	// responses zero-copy. A short write or any error leaves w in an
	// unknown state — the caller must treat the destination as broken.
	WriteSegment(w io.Writer, off, n int64) (int64, error)
}

// ErrAllocFull is returned when an append would exceed the allocation size.
var ErrAllocFull = errors.New("depot: allocation full")

// AllocMeta is the durable metadata of one allocation, persisted by
// backends that survive daemon restarts. The paper's Harvard depot "has
// automatic restart as a cron job" (§3.2) — capabilities held by clients
// must keep working across that restart, so the allocation table cannot
// live only in memory.
type AllocMeta struct {
	MaxSize     int64  `json:"max_size"`
	Expires     int64  `json:"expires_unix"`
	Reliability string `json:"reliability"`
	RefCount    int    `json:"refcount"`
}

// ---- In-memory backend ----

// MemBackend stores byte arrays in process memory. It is the default for
// tests and for simulated depots in the experiment harness.
type MemBackend struct {
	mu   sync.Mutex
	data map[string]*memHandle
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{data: make(map[string]*memHandle)}
}

// Create implements Backend.
func (b *MemBackend) Create(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[key]; ok {
		return nil, fmt.Errorf("depot: duplicate key %s", key)
	}
	h := &memHandle{max: maxSize}
	b.data[key] = h
	return h, nil
}

// Remove implements Backend.
func (b *MemBackend) Remove(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.data[key]; !ok {
		return fmt.Errorf("depot: remove: no such key %s", key)
	}
	delete(b.data, key)
	return nil
}

type memHandle struct {
	mu  sync.Mutex
	buf []byte
	max int64
}

func (h *memHandle) Append(p []byte) (int64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int64(len(h.buf))+int64(len(p)) > h.max {
		return int64(len(h.buf)), ErrAllocFull
	}
	h.buf = append(h.buf, p...)
	return int64(len(h.buf)), nil
}

func (h *memHandle) ReadAt(p []byte, off int64) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(h.buf)) {
		return io.ErrUnexpectedEOF
	}
	copy(p, h.buf[off:])
	return nil
}

func (h *memHandle) Len() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int64(len(h.buf))
}

// WriteSegment implements Handle. Only the slice header is read under
// the lock: bytes [0, len) never change after being written (append may
// reallocate, but the old array stays intact), so the write to w can run
// unlocked and concurrent appends are never observed.
func (h *memHandle) WriteSegment(w io.Writer, off, n int64) (int64, error) {
	h.mu.Lock()
	buf := h.buf
	h.mu.Unlock()
	if off < 0 || n < 0 || off+n > int64(len(buf)) {
		return 0, io.ErrUnexpectedEOF
	}
	m, err := w.Write(buf[off : off+n])
	return int64(m), err
}
