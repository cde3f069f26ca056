package depot

// The pack engine: the depot's disk backend. It bundles many small byte
// arrays into a few large append-only bundle files with an in-memory
// index. One file per allocation would cost one inode, one open/close and
// one directory entry per allocation — the classic reason object stores
// degrade as object count grows. Packing keeps the per-allocation cost at
// one index entry and one journal line, so store and load latency stay
// flat regardless of how many allocations are live (the auklet pack-engine
// result the small-object benchmark reproduces).
//
// Layout on disk:
//
//	bundle-<seq>.pack   large append-only files; each allocation owns the
//	                    byte range [off, off+maxSize) of exactly one bundle,
//	                    and an allocation larger than the bundle cap owns a
//	                    bundle of its own
//	journal.jsonl       append-only JSON-line journal of index mutations:
//	                    create / size / remove / meta records
//
// The index (key → bundle, offset, size) lives in memory and is rebuilt by
// replaying the journal at startup, so capabilities keep working across a
// depot restart
// (paper §3.2's cron-restarted depot). Bundles are never rewritten in
// place; Remove only marks space dead, and a bundle whose allocations are
// all dead is deleted whole. Compaction of partially-dead bundles is out
// of scope here.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/bufpool"
)

// DefaultBundleCap is the reservation ceiling of one bundle file. A Create
// that does not fit in the active bundle's remaining space seals it and
// starts the next one.
const DefaultBundleCap = 256 << 20

const packJournalName = "journal.jsonl"

// maxJournalLine bounds one journal record. Real records are well under
// 1 KiB; a longer line is corruption, not something to buffer.
const maxJournalLine = 64 << 10

// maxBundleSeq bounds bundle sequence numbers, so a journal naming an
// absurd bundle is refused rather than overflowing the next sequence.
const maxBundleSeq = math.MaxInt32

// copyChunkSize is the pooled scratch-buffer size for streaming a segment
// that lies outside a bundle's mapping.
const copyChunkSize = 256 << 10

// packRecord is one journal line.
type packRecord struct {
	Op     string     `json:"op"` // create | size | remove | meta
	Key    string     `json:"key"`
	Bundle int        `json:"bundle,omitempty"`
	Off    int64      `json:"off,omitempty"`
	Max    int64      `json:"max,omitempty"`
	Size   int64      `json:"size,omitempty"`
	Meta   *AllocMeta `json:"meta,omitempty"`
}

// packBundle is one bundle file.
type packBundle struct {
	seq  int
	f    *os.File
	mm   []byte // read-only shared mapping of the file; nil → pread fallback
	size int64  // file length; every reservation lies inside it
	tail int64  // bytes reserved so far
	live int    // live allocations referencing this bundle

	rmu sync.RWMutex // read-held by every read of mm or f; close takes it
}

// packEntry is the in-memory index entry of one allocation.
type packEntry struct {
	mu     sync.Mutex
	bundle *packBundle
	off    int64
	max    int64
	size   int64
}

// PackBackend implements Backend over bundle files, and keeps each
// allocation's metadata so the depot can restore its table on restart.
type PackBackend struct {
	dir       string
	bundleCap int64

	mu      sync.Mutex
	bundles map[int]*packBundle
	active  *packBundle
	nextSeq int
	index   map[string]*packEntry
	metas   map[string]AllocMeta

	jmu     sync.Mutex
	journal *os.File
	jw      *bufio.Writer
}

// NewPackBackend opens (creating if needed) a pack-engine store in dir and
// replays its journal. bundleCap caps one bundle's reserved bytes; pass 0
// for DefaultBundleCap.
func NewPackBackend(dir string, bundleCap int64) (*PackBackend, error) {
	if bundleCap <= 0 {
		bundleCap = DefaultBundleCap
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("depot: pack backend: %w", err)
	}
	if err := refuseFileBackendDir(dir); err != nil {
		return nil, err
	}
	b := &PackBackend{
		dir:       dir,
		bundleCap: bundleCap,
		bundles:   map[int]*packBundle{},
		index:     map[string]*packEntry{},
		metas:     map[string]AllocMeta{},
	}
	if err := b.replay(); err != nil {
		b.closeBundles()
		return nil, err
	}
	j, err := os.OpenFile(b.journalPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		b.closeBundles()
		return nil, fmt.Errorf("depot: pack journal: %w", err)
	}
	b.journal = j
	b.jw = bufio.NewWriter(j)
	return b, nil
}

// refuseFileBackendDir fails when dir holds the one-file-per-allocation
// layout of the retired file backend. Serving such a directory as an empty
// pack store would answer NOT_FOUND for every capability it acknowledged.
func refuseFileBackendDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("depot: pack backend: %w", err)
	}
	var legacy []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".ibp") || strings.HasSuffix(name, ".meta") {
			legacy = append(legacy, name)
		}
	}
	if len(legacy) == 0 {
		return nil
	}
	return fmt.Errorf("depot: pack backend: %s holds %d file-backend allocation files (%s); the pack engine cannot serve them",
		dir, len(legacy), strings.Join(legacy[:min(len(legacy), 3)], ", "))
}

func (b *PackBackend) journalPath() string { return filepath.Join(b.dir, packJournalName) }

func (b *PackBackend) bundlePath(seq int) string {
	return filepath.Join(b.dir, fmt.Sprintf("bundle-%06d.pack", seq))
}

// replay rebuilds the in-memory index from the journal. A crash mid-append
// leaves a final line with no newline; replay cuts the journal back to its
// last complete record, so the next record starts a line of its own rather
// than being glued to the torn bytes and lost on the replay after. A
// complete line that does not decode to a valid record is corruption:
// replay fails and names its byte offset instead of guessing past it.
func (b *PackBackend) replay() error {
	f, err := os.Open(b.journalPath())
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("depot: pack replay: %w", err)
	}
	defer f.Close()
	rd := bufio.NewReaderSize(f, maxJournalLine)
	var off int64 // offset of the current line
	for {
		line, err := rd.ReadSlice('\n')
		if err == io.EOF {
			if len(line) > 0 {
				if err := os.Truncate(b.journalPath(), off); err != nil {
					return fmt.Errorf("depot: pack replay: cutting torn tail: %w", err)
				}
			}
			break
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			err = fmt.Errorf("line longer than %d bytes", maxJournalLine)
		} else if err == nil {
			err = b.apply(line)
		}
		if err != nil {
			return fmt.Errorf("depot: pack replay: %s: bad record at byte offset %d: %w", b.journalPath(), off, err)
		}
		off += int64(len(line))
	}
	return b.attachBundles()
}

// apply replays one journal record into the index.
func (b *PackBackend) apply(line []byte) error {
	var rec packRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return err
	}
	switch rec.Op {
	case "create":
		if rec.Bundle < 0 || rec.Bundle > maxBundleSeq || rec.Off < 0 || rec.Max < 0 || rec.Off > math.MaxInt64-rec.Max {
			return fmt.Errorf("create %q: bundle %d range [%d,+%d) out of bounds", rec.Key, rec.Bundle, rec.Off, rec.Max)
		}
		if _, ok := b.index[rec.Key]; ok {
			return fmt.Errorf("create %q: key is already live", rec.Key)
		}
		bun := b.bundles[rec.Bundle]
		if bun == nil {
			bun = &packBundle{seq: rec.Bundle}
			b.bundles[rec.Bundle] = bun
		}
		bun.live++
		b.index[rec.Key] = &packEntry{bundle: bun, off: rec.Off, max: rec.Max}
		b.nextSeq = max(b.nextSeq, rec.Bundle+1)
	case "size":
		e, ok := b.index[rec.Key]
		if !ok {
			return nil // a store that finished after its allocation was removed
		}
		if rec.Size < 0 || rec.Size > e.max {
			return fmt.Errorf("size %q: %d outside [0,%d]", rec.Key, rec.Size, e.max)
		}
		e.size = rec.Size
	case "remove":
		if e, ok := b.index[rec.Key]; ok {
			delete(b.index, rec.Key)
			e.bundle.live--
		}
		delete(b.metas, rec.Key)
	case "meta":
		if rec.Meta == nil {
			return fmt.Errorf("meta %q: no metadata", rec.Key)
		}
		b.metas[rec.Key] = *rec.Meta
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// attachBundles opens the file of every bundle the replayed index still
// uses and deletes the rest: a bundle whose allocations are all dead was
// already deleted or was about to be when the depot stopped. It then
// resumes appending into the newest bundle of regular size.
func (b *PackBackend) attachBundles() error {
	for seq, bun := range b.bundles {
		if bun.live == 0 {
			delete(b.bundles, seq)
			os.Remove(b.bundlePath(seq)) // best effort; it holds nothing live
			continue
		}
		f, err := os.OpenFile(b.bundlePath(seq), os.O_RDWR, 0)
		if err != nil {
			return fmt.Errorf("depot: pack replay: bundle %d holds %d live allocations: %w", seq, bun.live, err)
		}
		bun.f = f
		if err := bun.mmap(0); err != nil {
			return err
		}
	}
	// Reservations resume after the last live one; dead space past it is
	// free again.
	for key, e := range b.index {
		end := e.off + e.max
		if end > e.bundle.size {
			return fmt.Errorf("depot: pack replay: allocation %s reserves [%d,%d) past the end of %s (%d bytes)",
				key, e.off, end, b.bundlePath(e.bundle.seq), e.bundle.size)
		}
		e.bundle.tail = max(e.bundle.tail, end)
	}
	for _, bun := range b.bundles {
		if bun.size <= b.bundleCap && (b.active == nil || bun.seq > b.active.seq) {
			b.active = bun
		}
	}
	return nil
}

// openBundle creates (or reuses a leftover file for) bundle seq, at least
// size bytes long. Caller holds b.mu.
func (b *PackBackend) openBundle(seq int, size int64) (*packBundle, error) {
	if seq > maxBundleSeq {
		return nil, fmt.Errorf("depot: pack bundle sequence exhausted at %d", seq)
	}
	f, err := os.OpenFile(b.bundlePath(seq), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("depot: pack bundle %d: %w", seq, err)
	}
	bun := &packBundle{seq: seq, f: f}
	if err := bun.mmap(size); err != nil {
		f.Close()
		return nil, err
	}
	b.bundles[seq] = bun
	return bun, nil
}

// mmap grows the bundle file to at least size bytes and maps it read-only.
// Growing is sparse — no blocks are allocated until written. Reads then
// come straight out of the shared page cache with no syscall per load;
// appends keep using pwrite, which the mapping observes. When the mapping
// is refused, or a range lies past it because the file grew later, reads
// fall back to pread.
func (bun *packBundle) mmap(size int64) error {
	st, err := bun.f.Stat()
	if err != nil {
		return fmt.Errorf("depot: pack bundle %d: %w", bun.seq, err)
	}
	bun.size = st.Size()
	if err := bun.grow(size); err != nil {
		return err
	}
	bun.mm = mmapFile(bun.f, bun.size)
	return nil
}

// grow extends the bundle file to at least size bytes.
func (bun *packBundle) grow(size int64) error {
	if size <= bun.size {
		return nil
	}
	if err := bun.f.Truncate(size); err != nil {
		return fmt.Errorf("depot: pack bundle %d: %w", bun.seq, err)
	}
	bun.size = size
	return nil
}

// close unmaps and closes the bundle file once no read holds it.
func (bun *packBundle) close() {
	bun.rmu.Lock()
	defer bun.rmu.Unlock()
	munmapFile(bun.mm)
	bun.mm = nil
	if bun.f != nil {
		bun.f.Close()
	}
}

// dropBundle deletes a fully-dead bundle. A LOAD of its last allocation
// may still be streaming from the mapping, so the bundle is closed in the
// background once that read ends. Caller holds b.mu.
func (b *PackBackend) dropBundle(bun *packBundle) {
	go bun.close()
	os.Remove(b.bundlePath(bun.seq))
	delete(b.bundles, bun.seq)
	if b.active == bun {
		b.active = nil
	}
}

// record appends one journal line and flushes it.
func (b *PackBackend) record(rec packRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	b.jmu.Lock()
	defer b.jmu.Unlock()
	if _, err := b.jw.Write(line); err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	if err := b.jw.WriteByte('\n'); err != nil {
		return fmt.Errorf("depot: pack journal: %w", err)
	}
	return b.jw.Flush()
}

// Create implements Backend: it reserves [tail, tail+maxSize) in the active
// bundle, sealing it and opening the next when the reservation does not
// fit. An allocation larger than the bundle cap gets a bundle of its own,
// sized to it; that bundle never becomes active, so its Remove deletes the
// file at once.
func (b *PackBackend) Create(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	if _, ok := b.index[key]; ok {
		b.mu.Unlock()
		return nil, fmt.Errorf("depot: duplicate key %s", key)
	}
	bun := b.active
	if bun == nil || bun.tail+maxSize > b.bundleCap {
		nb, err := b.openBundle(b.nextSeq, max(b.bundleCap, maxSize))
		if err != nil {
			b.mu.Unlock()
			return nil, err
		}
		b.nextSeq++
		bun = nb
		if maxSize <= b.bundleCap {
			b.active = nb
		}
	}
	// A bundle written under a smaller cap is shorter than the reservations
	// the current cap lets it take.
	if err := bun.grow(bun.tail + maxSize); err != nil {
		b.mu.Unlock()
		return nil, err
	}
	e := &packEntry{bundle: bun, off: bun.tail, max: maxSize}
	bun.tail += maxSize
	bun.live++
	b.index[key] = e
	b.mu.Unlock()
	if err := b.record(packRecord{Op: "create", Key: key, Bundle: bun.seq, Off: e.off, Max: maxSize}); err != nil {
		return nil, err
	}
	return &packHandle{b: b, key: key, e: e}, nil
}

// Remove implements Backend. The allocation's range becomes dead space;
// the bundle file is deleted only once every allocation in it is dead.
// The remove is journaled before the index or the files change, so a
// crash never leaves a live journal entry whose bundle file is gone.
func (b *PackBackend) Remove(key string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.index[key]
	if !ok {
		return fmt.Errorf("depot: remove: no such key %s", key)
	}
	if err := b.record(packRecord{Op: "remove", Key: key}); err != nil {
		return err
	}
	delete(b.index, key)
	delete(b.metas, key)
	bun := e.bundle
	bun.live--
	if bun.live == 0 && bun != b.active {
		b.dropBundle(bun)
	}
	return nil
}

// Open reattaches to a replayed entry.
func (b *PackBackend) Open(key string, maxSize int64) (Handle, error) {
	b.mu.Lock()
	e, ok := b.index[key]
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("depot: open: no such key %s", key)
	}
	if e.max != maxSize {
		return nil, fmt.Errorf("depot: open %s: size mismatch (index %d, meta %d)", key, e.max, maxSize)
	}
	return &packHandle{b: b, key: key, e: e}, nil
}

// SaveMeta records the allocation's metadata in the journal.
func (b *PackBackend) SaveMeta(key string, meta AllocMeta) error {
	b.mu.Lock()
	b.metas[key] = meta
	b.mu.Unlock()
	return b.record(packRecord{Op: "meta", Key: key, Meta: &meta})
}

// LoadMeta returns the metadata of every stored allocation.
func (b *PackBackend) LoadMeta() map[string]AllocMeta {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]AllocMeta, len(b.metas))
	for k, v := range b.metas {
		out[k] = v
	}
	return out
}

// Close flushes the journal and closes every bundle. The depot does not
// call this (backends outlive connections); it exists for orderly daemon
// shutdown and tests.
func (b *PackBackend) Close() error {
	b.jmu.Lock()
	b.jw.Flush()
	err := b.journal.Close()
	b.jmu.Unlock()
	b.closeBundles()
	return err
}

func (b *PackBackend) closeBundles() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bun := range b.bundles {
		bun.close()
	}
}

// Bundles reports how many bundle files are open (for tests).
func (b *PackBackend) Bundles() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.bundles)
}

// packHandle is the Handle view of one packed allocation.
type packHandle struct {
	b   *PackBackend
	key string
	e   *packEntry
}

func (h *packHandle) Append(p []byte) (int64, error) {
	e := h.e
	e.mu.Lock()
	if e.size+int64(len(p)) > e.max {
		n := e.size
		e.mu.Unlock()
		return n, ErrAllocFull
	}
	n, err := e.bundle.f.WriteAt(p, e.off+e.size)
	e.size += int64(n)
	newSize := e.size
	e.mu.Unlock()
	if err != nil {
		return newSize, fmt.Errorf("depot: pack append: %w", err)
	}
	if err := h.b.record(packRecord{Op: "size", Key: h.key, Size: newSize}); err != nil {
		return newSize, err
	}
	return newSize, nil
}

// segment checks [off, off+n) against the written length and returns the
// range inside the mapping mm, or nil when mm does not cover it and reads
// must go through the file. Written ranges are immutable, so callers use
// the result without holding the entry lock.
func (h *packHandle) segment(mm []byte, off, n int64) ([]byte, error) {
	e := h.e
	e.mu.Lock()
	size := e.size
	e.mu.Unlock()
	if off < 0 || n < 0 || off+n > size {
		return nil, io.ErrUnexpectedEOF
	}
	if start := e.off + off; start+n <= int64(len(mm)) {
		return mm[start : start+n], nil
	}
	return nil, nil
}

func (h *packHandle) ReadAt(p []byte, off int64) error {
	bun := h.e.bundle
	bun.rmu.RLock()
	defer bun.rmu.RUnlock()
	seg, err := h.segment(bun.mm, off, int64(len(p)))
	if err != nil {
		return err
	}
	if seg != nil {
		copy(p, seg)
		return nil
	}
	if _, err := bun.f.ReadAt(p, h.e.off+off); err != nil {
		return fmt.Errorf("depot: pack read: %w", err)
	}
	return nil
}

func (h *packHandle) Len() int64 {
	h.e.mu.Lock()
	defer h.e.mu.Unlock()
	return h.e.size
}

// WriteSegment implements Handle. With a mapping the segment goes to w
// straight from the page cache — zero copies on our side, no read
// syscalls; otherwise it streams through a pooled chunk (os.File.ReadAt
// is safe for concurrent use).
func (h *packHandle) WriteSegment(w io.Writer, off, n int64) (int64, error) {
	bun := h.e.bundle
	bun.rmu.RLock()
	defer bun.rmu.RUnlock()
	seg, err := h.segment(bun.mm, off, n)
	if err != nil {
		return 0, err
	}
	if seg != nil {
		m, err := w.Write(seg)
		return int64(m), err
	}
	chunk := bufpool.Get(copyChunkSize)
	defer bufpool.Put(chunk)
	m, err := io.CopyBuffer(w, io.NewSectionReader(bun.f, h.e.off+off, n), chunk)
	if err != nil {
		return m, fmt.Errorf("depot: pack stream read: %w", err)
	}
	return m, nil
}
