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
// place. A removed allocation's range is hole-punched out of its bundle
// (on Linux) once no read is still using it, so dead space gives its disk
// blocks back at once; a bundle whose allocations are all dead is deleted
// whole. Replay punches every gap between the live reservations of the
// bundles it reopens, which reclaims stores written before punching and a
// crash between a remove record and its punch. Nothing is ever moved:
// there is no compaction.

import (
	"bufio"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

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

	rmu     sync.RWMutex // read-held by every read of mm or f, and the punch its release may do; close takes it
	dropped atomic.Bool  // the file is deleted whole, so its ranges need no punching
}

// packEntry is the in-memory index entry of one allocation.
type packEntry struct {
	mu     sync.Mutex
	bundle *packBundle
	off    int64
	max    int64
	size   int64
	dead   bool // removed: appends and new reads fail; guarded by mu

	// refs is 1 while the entry is live, plus one per read in flight. The
	// range is punched when it drops to 0, so a read that began before the
	// remove never sees the punched zeros.
	refs atomic.Int32
}

func newPackEntry(bun *packBundle, off, max int64) *packEntry {
	e := &packEntry{bundle: bun, off: off, max: max}
	e.refs.Store(1)
	return e
}

// errPackRemoved answers a read or append that reaches an allocation after
// its Remove.
var errPackRemoved = errors.New("depot: pack: allocation removed")

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

	reclaimed   atomic.Int64 // dead bytes punched out of bundles
	punchErrors atomic.Int64 // punches the filesystem refused
}

// replayedCreate is a create record seen during replay, with the byte
// offset of its journal line.
type replayedCreate struct {
	key string
	e   *packEntry
	at  int64
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
	var creates []replayedCreate
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
			var c replayedCreate
			if c, err = b.apply(line); c.e != nil {
				c.at = off
				creates = append(creates, c)
			}
		}
		if err != nil {
			return fmt.Errorf("depot: pack replay: %s: bad record at byte offset %d: %w", b.journalPath(), off, err)
		}
		off += int64(len(line))
	}
	return b.attachBundles(creates)
}

// apply replays one journal record into the index. For a create record it
// returns the new entry.
func (b *PackBackend) apply(line []byte) (replayedCreate, error) {
	var rec packRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return replayedCreate{}, err
	}
	switch rec.Op {
	case "create":
		if rec.Bundle < 0 || rec.Bundle > maxBundleSeq || rec.Off < 0 || rec.Max < 0 || rec.Off > math.MaxInt64-rec.Max {
			return replayedCreate{}, fmt.Errorf("create %q: bundle %d range [%d,+%d) out of bounds", rec.Key, rec.Bundle, rec.Off, rec.Max)
		}
		if _, ok := b.index[rec.Key]; ok {
			return replayedCreate{}, fmt.Errorf("create %q: key is already live", rec.Key)
		}
		bun := b.bundles[rec.Bundle]
		if bun == nil {
			bun = &packBundle{seq: rec.Bundle}
			b.bundles[rec.Bundle] = bun
		}
		bun.live++
		e := newPackEntry(bun, rec.Off, rec.Max)
		b.index[rec.Key] = e
		b.nextSeq = max(b.nextSeq, rec.Bundle+1)
		return replayedCreate{key: rec.Key, e: e}, nil
	case "size":
		e, ok := b.index[rec.Key]
		if !ok {
			return replayedCreate{}, nil // a store that finished after its allocation was removed
		}
		if rec.Size < 0 || rec.Size > e.max {
			return replayedCreate{}, fmt.Errorf("size %q: %d outside [0,%d]", rec.Key, rec.Size, e.max)
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
			return replayedCreate{}, fmt.Errorf("meta %q: no metadata", rec.Key)
		}
		b.metas[rec.Key] = *rec.Meta
	default:
		return replayedCreate{}, fmt.Errorf("unknown op %q", rec.Op)
	}
	return replayedCreate{}, nil
}

// attachBundles opens the file of every bundle the replayed index still
// uses and deletes the rest: a bundle whose allocations are all dead was
// already deleted or was about to be when the depot stopped. It checks the
// live reservations, punches the dead gaps between them, and resumes
// appending into the newest bundle of regular size. creates are the
// replayed create records, in journal order.
func (b *PackBackend) attachBundles(creates []replayedCreate) error {
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
	live := creates[:0]
	for _, c := range creates {
		if b.index[c.key] == c.e {
			live = append(live, c)
		}
	}
	slices.SortFunc(live, func(x, y replayedCreate) int {
		return cmp.Or(cmp.Compare(x.e.bundle.seq, y.e.bundle.seq), cmp.Compare(x.e.off, y.e.off))
	})
	if err := b.punchGaps(live); err != nil {
		return err
	}
	for _, bun := range b.bundles {
		if bun.size <= b.bundleCap && (b.active == nil || bun.seq > b.active.seq) {
			b.active = bun
		}
	}
	return nil
}

// punchGaps takes the live reservations, sorted by bundle and offset. It
// refuses one that runs past its bundle's end or overlaps another, naming
// the journal record that claimed it, before it touches any file: punching
// around either would zero live bytes. It then punches every gap between
// live reservations, the space past the last one included, and sets each
// bundle's tail after its last live reservation, where reservations
// resume.
func (b *PackBackend) punchGaps(live []replayedCreate) error {
	refuse := func(c replayedCreate, format string, args ...any) error {
		return fmt.Errorf("depot: pack replay: %s: bad record at byte offset %d: %s",
			b.journalPath(), c.at, fmt.Sprintf(format, args...))
	}
	var last replayedCreate // the nonempty reservation ending furthest into its bundle so far
	for _, c := range live {
		bun, end := c.e.bundle, c.e.off+c.e.max
		if end > bun.size {
			return refuse(c, "allocation %s reserves [%d,%d) past the end of %s (%d bytes)",
				c.key, c.e.off, end, b.bundlePath(bun.seq), bun.size)
		}
		if c.e.max == 0 {
			continue // holds no bytes, so it overlaps nothing
		}
		if last.e != nil && last.e.bundle == bun && c.e.off < last.e.off+last.e.max {
			later, earlier := c, last
			if later.at < earlier.at {
				later, earlier = earlier, later
			}
			return refuse(later, "allocation %s reserves [%d,%d) of bundle %d, overlapping %s at [%d,%d)",
				later.key, later.e.off, later.e.off+later.e.max, bun.seq, earlier.key, earlier.e.off, earlier.e.off+earlier.e.max)
		}
		last = c
	}
	for i := 0; i < len(live); {
		bun := live[i].e.bundle
		before := diskBytes(bun.f)
		for ; i < len(live) && live[i].e.bundle == bun; i++ {
			if e := live[i].e; e.max > 0 {
				b.punch(bun, bun.tail, e.off-bun.tail)
				bun.tail = e.off + e.max
			}
		}
		b.punch(bun, bun.tail, bun.size-bun.tail)
		b.reclaimed.Add(before - diskBytes(bun.f))
	}
	return nil
}

// punch frees [off, off+n) of bun. A refusal (a filesystem without hole
// punching, say) is counted, not fatal: the range stays allocated and
// reads as before.
func (b *PackBackend) punch(bun *packBundle, off, n int64) bool {
	if err := punchHole(bun.f, off, n); err != nil {
		b.punchErrors.Add(1)
		return false
	}
	return true
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
	bun.dropped.Store(true)
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
	e := newPackEntry(bun, bun.tail, maxSize)
	bun.tail += maxSize
	bun.live++
	b.index[key] = e
	b.mu.Unlock()
	if err := b.record(packRecord{Op: "create", Key: key, Bundle: bun.seq, Off: e.off, Max: maxSize}); err != nil {
		return nil, err
	}
	return &packHandle{b: b, key: key, e: e}, nil
}

// Remove implements Backend. The remove is journaled before the index or
// the files change, so a crash never leaves a live journal entry whose
// bytes are gone. Appends and reads that start after it fail. The
// allocation's range is then punched out of its bundle, at once or when
// the last read that began before the remove ends; a bundle whose
// allocations are all dead is deleted whole instead.
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
	e.mu.Lock() // waits out an Append in flight
	e.dead = true
	e.mu.Unlock()
	bun := e.bundle
	bun.live--
	if bun.live == 0 && bun != b.active {
		b.dropBundle(bun)
	}
	b.release(e)
	return nil
}

// release drops one reference to e. The last one, taken only after e is
// removed, punches e's range out of its bundle unless the bundle is gone
// whole. The caller holds b.mu or read-holds e.bundle.rmu, either of which
// keeps a bundle that is not dropped open. (Remove must not wait for rmu:
// a dropped bundle's pending close holds off new readers until the reads
// in flight end, and those may wait on Remove's caller.)
func (b *PackBackend) release(e *packEntry) {
	if e.refs.Add(-1) != 0 || e.bundle.dropped.Load() {
		return
	}
	if b.punch(e.bundle, e.off, e.max) {
		b.reclaimed.Add(e.max)
	}
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

// PackStats are the pack engine's internals, for the depot's /metrics.
type PackStats struct {
	Bundles        int   // open bundle files
	JournalBytes   int64 // size of the journal file
	ReclaimedBytes int64 // dead bytes punched out of bundles
	PunchErrors    int64 // punches the filesystem refused
}

// Stats reports the engine's current PackStats.
func (b *PackBackend) Stats() PackStats {
	b.mu.Lock()
	bundles := len(b.bundles)
	b.mu.Unlock()
	var journal int64
	b.jmu.Lock()
	if st, err := b.journal.Stat(); err == nil {
		journal = st.Size()
	}
	b.jmu.Unlock()
	return PackStats{Bundles: bundles, JournalBytes: journal,
		ReclaimedBytes: b.reclaimed.Load(), PunchErrors: b.punchErrors.Load()}
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
	if e.dead {
		e.mu.Unlock()
		return 0, errPackRemoved
	}
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
// must go through the file. On success it pins the entry, so a Remove
// cannot punch the range while the caller reads it: the caller must
// release h.e while still read-holding the bundle. Written ranges are
// immutable, so callers use the result without holding the entry lock.
func (h *packHandle) segment(mm []byte, off, n int64) ([]byte, error) {
	e := h.e
	e.mu.Lock()
	if e.dead {
		e.mu.Unlock()
		return nil, errPackRemoved
	}
	if off < 0 || n < 0 || off+n > e.size {
		e.mu.Unlock()
		return nil, io.ErrUnexpectedEOF
	}
	e.refs.Add(1)
	e.mu.Unlock()
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
	defer h.b.release(h.e)
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
	defer h.b.release(h.e)
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
