package trace

import (
	"context"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"twolevel/internal/span"
)

// Packed is a memory-compact, append-only event store. Events are held in
// struct-of-arrays form — three uint32 columns plus one metadata byte per
// event (13 bytes) instead of the padded Event struct (20 bytes) — so a
// benchmark's full capture stays resident cheaply while many replay
// cursors walk it.
//
// Appending and View are not safe for concurrent use (View caches the
// index prefix it hands out); snapshots taken with View are immutable
// and may be read from any number of goroutines, including while the
// Packed keeps growing (appends never mutate the prefix a snapshot
// covers).
type Packed struct {
	instrs  []uint32
	pcs     []uint32
	targets []uint32
	meta    []uint8
	conds   int
	// condEnds is the sparse budget index: condEnds[j] is the event
	// index just past the ((j+1)*condStride)-th conditional branch.
	condEnds []uint32
	// lastCut is the index prefix the latest View handed out. Prefixes
	// never change once written, so Views at the same index length (every
	// cache hit at one budget) share it instead of allocating a header.
	lastCut *[]uint32
}

// condStride is the spacing of the budget index. Finding "the index
// just past the n-th conditional" reads one index entry and then scans
// fewer than condStride conditionals, at 4 bytes of index per stride.
const condStride = 64

// Metadata bit layout: trap flag, taken flag, branch class. Exported so
// flat replay kernels (internal/sim/fastpath) can decode the packed meta
// column directly instead of paying a per-event At/Next decode.
const (
	// MetaTrap marks a trap event (no branch fields).
	MetaTrap = 1 << 0
	// MetaTaken is the branch outcome bit.
	MetaTaken = 1 << 1
	// MetaClassShift is the bit offset of the branch class field, which
	// occupies bits 2..4.
	MetaClassShift = 2
)

// Private aliases keep the package-internal encode/decode sites short.
const (
	metaTrap  = MetaTrap
	metaTaken = MetaTaken
	metaClass = MetaClassShift
)

// Append adds one event.
func (p *Packed) Append(e Event) {
	var m uint8
	if e.Trap {
		m |= metaTrap
	}
	if e.Branch.Taken {
		m |= metaTaken
	}
	m |= uint8(e.Branch.Class) << metaClass
	p.instrs = append(p.instrs, e.Instrs)
	p.pcs = append(p.pcs, e.Branch.PC)
	p.targets = append(p.targets, e.Branch.Target)
	p.meta = append(p.meta, m)
	if !e.Trap && e.Branch.Class == Cond {
		if p.conds++; p.conds%condStride == 0 {
			p.condEnds = append(p.condEnds, uint32(len(p.meta)))
		}
	}
}

// Len returns the number of stored events.
func (p *Packed) Len() int { return len(p.meta) }

// Conds returns the number of stored conditional branch events.
func (p *Packed) Conds() int { return p.conds }

// Bytes returns the approximate heap footprint of the stored columns.
func (p *Packed) Bytes() int64 { return int64(cap(p.meta)) * 13 }

// eventsForConds returns the prefix length that covers the first n
// conditional branches (the index just past the nth one), or Len() when
// the store holds fewer.
func (p *Packed) eventsForConds(n uint64) int {
	return condsEnd(p.meta, p.condEnds, 0, n)
}

// View snapshots the first n events. The snapshot stays valid and
// immutable across later appends. n is clamped to [0, Len()]: callers
// computing prefix lengths from untrusted budgets get the whole (or an
// empty) capture rather than a panic.
func (p *Packed) View(n int) Snapshot {
	if n < 0 {
		n = 0
	}
	if n > p.Len() {
		n = p.Len()
	}
	// Keep the index entries that fall inside the prefix (none for a
	// prefix below one stride, so equal prefixes compare equal however
	// far p has grown).
	var ends *[]uint32
	if k := entriesUpTo(p.condEnds, n); k > 0 {
		if p.lastCut == nil || len(*p.lastCut) != k {
			cut := p.condEnds[:k:k]
			p.lastCut = &cut
		}
		ends = p.lastCut
	}
	return Snapshot{
		instrs:   p.instrs[:n:n],
		pcs:      p.pcs[:n:n],
		targets:  p.targets[:n:n],
		meta:     p.meta[:n:n],
		condEnds: ends,
	}
}

// Snapshot is an immutable view of a Packed prefix. Any number of
// goroutines may take Readers over the same snapshot.
type Snapshot struct {
	instrs  []uint32
	pcs     []uint32
	targets []uint32
	meta    []uint8
	// condEnds is the Packed budget index cut to this prefix, or nil.
	// It is held by pointer so a Snapshot stays within one word of its
	// columns: replay allocates a SnapshotReader per run, and a full
	// slice header would push that into the next size class.
	condEnds *[]uint32
}

// Len returns the number of events in the snapshot.
func (s Snapshot) Len() int { return len(s.meta) }

// Conds returns the number of conditional branch events in the
// snapshot.
func (s Snapshot) Conds() int { return int(condsBefore(s.meta, s.ends(), s.Len())) }

// CondsEnd returns the index just past the n-th conditional branch at or
// after event start, or Len() when the snapshot holds fewer; start is
// clamped to [0, Len()], and n == 0 returns start. It is the replay
// budget's stop index: one index lookup each side plus scans shorter
// than the index stride, not a walk of the meta column.
func (s Snapshot) CondsEnd(start int, n uint64) int {
	return condsEnd(s.meta, s.ends(), start, n)
}

func (s Snapshot) ends() []uint32 {
	if s.condEnds == nil {
		return nil
	}
	return *s.condEnds
}

func isCond(m uint8) bool { return m&metaTrap == 0 && Class(m>>metaClass) == Cond }

// entriesUpTo returns how many budget index entries are at most i.
func entriesUpTo(ends []uint32, i int) int {
	k, found := slices.BinarySearch(ends, uint32(i))
	if found {
		k++
	}
	return k
}

// condsBefore counts the conditional branches among meta[:i]: the last
// index entry at or before i, then a scan of the rest.
func condsBefore(meta []uint8, ends []uint32, i int) uint64 {
	j := entriesUpTo(ends, i)
	pos, n := 0, uint64(j)*condStride
	if j > 0 {
		pos = int(ends[j-1])
	}
	for _, m := range meta[pos:i] {
		if isCond(m) {
			n++
		}
	}
	return n
}

// condsEnd is CondsEnd over a meta column and its budget index.
func condsEnd(meta []uint8, ends []uint32, start int, n uint64) int {
	start = max(0, min(start, len(meta)))
	if n == 0 {
		return start
	}
	target := condsBefore(meta, ends, start) + n
	j := target / condStride
	if j > uint64(len(ends)) {
		return len(meta)
	}
	pos, seen := 0, j*condStride
	if j > 0 {
		if pos = int(ends[j-1]); seen == target {
			return pos
		}
	}
	for i, m := range meta[pos:] {
		if isCond(m) {
			if seen++; seen == target {
				return pos + i + 1
			}
		}
	}
	return len(meta)
}

// At decodes event i.
func (s Snapshot) At(i int) Event {
	m := s.meta[i]
	return Event{
		Instrs: s.instrs[i],
		Trap:   m&metaTrap != 0,
		Branch: Branch{
			PC:     s.pcs[i],
			Target: s.targets[i],
			Class:  Class(m >> metaClass),
			Taken:  m&metaTaken != 0,
		},
	}
}

// Reader returns a fresh replay cursor positioned at the first event.
func (s Snapshot) Reader() *SnapshotReader { return &SnapshotReader{s: s} }

// Columns exposes the snapshot's raw packed columns for flat replay
// kernels: per-event instruction counts, branch addresses, branch targets
// and the metadata byte (see the Meta* bit layout). The slices alias the
// snapshot's immutable storage — callers must treat them as read-only.
func (s Snapshot) Columns() (instrs, pcs, targets []uint32, meta []uint8) {
	return s.instrs, s.pcs, s.targets, s.meta
}

// Checksum returns an FNV-1a digest over the snapshot's packed columns
// (length-prefixed, column order fixed). Two snapshots of the same
// deterministic generator at the same budget always agree; resume
// manifests store it to detect a capture that no longer matches the one
// a checkpoint was written against.
func (s Snapshot) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint32) {
		h = (h ^ uint64(v&0xff)) * prime64
		h = (h ^ uint64(v>>8&0xff)) * prime64
		h = (h ^ uint64(v>>16&0xff)) * prime64
		h = (h ^ uint64(v>>24&0xff)) * prime64
	}
	word(uint32(len(s.meta)))
	for _, v := range s.instrs {
		word(v)
	}
	for _, v := range s.pcs {
		word(v)
	}
	for _, v := range s.targets {
		word(v)
	}
	for _, m := range s.meta {
		h = (h ^ uint64(m)) * prime64
	}
	return h
}

// SnapshotReader replays a Snapshot as a Source. Each reader carries its
// own position; readers over one snapshot are independent.
type SnapshotReader struct {
	s   Snapshot
	pos int
}

// Next implements Source.
func (r *SnapshotReader) Next() (Event, error) {
	if r.pos >= r.s.Len() {
		return Event{}, io.EOF
	}
	e := r.s.At(r.pos)
	r.pos++
	return e, nil
}

// Reset rewinds the reader to the start of the snapshot.
func (r *SnapshotReader) Reset() { r.pos = 0 }

// Snapshot returns the snapshot the reader walks.
func (r *SnapshotReader) Snapshot() Snapshot { return r.s }

// Pos returns the index of the next event Next would return.
func (r *SnapshotReader) Pos() int { return r.pos }

// Seek positions the reader so the next event is index pos, clamped to
// [0, Len()]. Flat replay kernels consume events by index over Columns
// and then Seek the cursor past what they consumed, so interleaved
// interface-level reads keep working.
func (r *SnapshotReader) Seek(pos int) {
	if pos < 0 {
		pos = 0
	}
	if n := r.s.Len(); pos > n {
		pos = n
	}
	r.pos = pos
}

// CaptureCache materialises event streams exactly once and serves them to
// any number of replaying consumers. Each key (conventionally a
// benchmark/data-set pair) owns one generating Source, opened lazily and
// drained incrementally: a request for n conditional branches extends the
// stored capture only past what previous requests already paid for, so
// the expensive generator runs at most once per key no matter how many
// budgets or goroutines ask.
//
// Concurrent Capture calls on one key are single-flighted: the first
// caller opens the source and captures while the rest block on the entry
// lock, then reuse the stored events.
//
// Errors are NOT sticky: a failed open or a mid-capture source error is
// returned to the caller and the entry is reset, so a later Capture on
// the same key re-opens the source and re-captures from scratch — a
// transient failure never poisons the key. A cancelled context leaves
// the partial capture in place; the next Capture resumes extending it.
type CaptureCache struct {
	mu      sync.Mutex
	entries map[string]*captureEntry

	// hits counts Capture calls served entirely from stored events;
	// misses counts calls that had to open or extend a capture. Atomics:
	// Stats reads them without the entry locks Capture holds.
	hits   atomic.Uint64
	misses atomic.Uint64
}

type captureEntry struct {
	mu        sync.Mutex
	opened    bool
	src       Source
	exhausted bool // src returned io.EOF
	packed    Packed
}

// reset drops the entry's source and captured events so the next Capture
// retries from scratch. Snapshots already handed out keep the old
// columns — they are immutable — and stay valid.
func (e *captureEntry) reset() {
	e.opened = false
	e.src = nil
	e.exhausted = false
	e.packed = Packed{}
}

// captureCheckInterval is how many captured events pass between
// cancellation polls while a capture drains its generating source.
const captureCheckInterval = 65536

// NewCaptureCache returns an empty cache.
func NewCaptureCache() *CaptureCache {
	return &CaptureCache{entries: map[string]*captureEntry{}}
}

// Capture returns an immutable snapshot of key's event stream covering
// the first conds conditional branches (fewer if the source ends early).
// open creates the generating source; it is invoked once per successful
// capture lifetime (a failed open or source error resets the entry, so
// the next Capture calls open again — see the poisoning note on
// CaptureCache).
//
// ctx, when non-nil, bounds the capture: cancellation returns ctx.Err()
// and keeps the partial capture, so a resumed call continues where the
// cancelled one stopped. A nil ctx is context.Background().
func (c *CaptureCache) Capture(ctx context.Context, key string, conds uint64, open func() (Source, error)) (Snapshot, error) {
	snap, _, err := c.CaptureWithStatus(ctx, key, conds, open)
	return snap, err
}

// CaptureWithStatus is Capture plus whether the request was a cache hit:
// true when it was served entirely from stored events, false when the
// capture had to open or extend (or failed). Callers logging per-capture
// cache behaviour use this; the same outcome feeds the Stats counters.
func (c *CaptureCache) CaptureWithStatus(ctx context.Context, key string, conds uint64, open func() (Source, error)) (Snapshot, bool, error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &captureEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	extended := false
	if !e.opened {
		src, err := open()
		if err != nil {
			c.misses.Add(1)
			return Snapshot{}, false, err
		}
		e.src = src
		e.opened = true
		extended = true
	}
	var sinceCheck uint32
	for uint64(e.packed.Conds()) < conds && !e.exhausted {
		extended = true
		if ctx != nil {
			if sinceCheck++; sinceCheck >= captureCheckInterval {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					c.misses.Add(1)
					return Snapshot{}, false, err
				}
			}
		}
		ev, err := e.src.Next()
		if err == io.EOF {
			e.exhausted = true
			break
		}
		if err != nil {
			// A mid-stream error leaves the source at an undefined
			// position; drop the entry so a retry re-captures cleanly
			// instead of serving a torn prefix forever.
			e.reset()
			c.misses.Add(1)
			return Snapshot{}, false, err
		}
		e.packed.Append(ev)
	}
	if extended {
		c.misses.Add(1)
	} else {
		c.hits.Add(1)
	}
	return e.packed.View(e.packed.eventsForConds(conds)), !extended, nil
}

// CaptureTraced is CaptureWithStatus with latency attribution: the whole
// capture request — single-flight lock wait plus any source extension —
// is recorded as a "capture" child span of parent, with the key, the
// requested budget and the hit/miss outcome as attributes. A nil parent
// is exactly CaptureWithStatus: no span is opened and no attribute is
// built (the nil guard below is the zero-cost-when-disabled contract the
// spannilguard analyzer enforces in this package).
func (c *CaptureCache) CaptureTraced(ctx context.Context, key string, conds uint64, parent *span.Span, open func() (Source, error)) (Snapshot, bool, error) {
	if parent == nil {
		return c.CaptureWithStatus(ctx, key, conds, open)
	}
	sp := parent.Child("capture", span.Str("key", key), span.Uint64("conds", conds))
	snap, hit, err := c.CaptureWithStatus(ctx, key, conds, open)
	sp.SetAttr(span.Bool("hit", hit))
	if err != nil {
		sp.SetAttr(span.Str("error", err.Error()))
	}
	sp.End()
	return snap, hit, err
}

// CaptureStats summarises a cache's contents.
type CaptureStats struct {
	// Entries is the number of captured streams.
	Entries int `json:"entries"`
	// Events is the total number of stored events.
	Events int `json:"events"`
	// Conds is the total number of stored conditional branches.
	Conds int `json:"conds"`
	// Bytes is the approximate heap footprint of the stored columns.
	Bytes int64 `json:"bytes"`
	// Hits counts Capture calls served entirely from stored events;
	// Misses counts calls that had to open or extend a capture (a failed
	// open or torn capture counts as a miss too).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
}

// HitRatio returns Hits over all Capture calls (0 before the first call).
func (s CaptureStats) HitRatio() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Stats reports the cache's current footprint.
func (c *CaptureCache) Stats() CaptureStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var s CaptureStats
	s.Entries = len(c.entries)
	s.Hits = c.hits.Load()
	s.Misses = c.misses.Load()
	for _, e := range c.entries {
		e.mu.Lock()
		s.Events += e.packed.Len()
		s.Conds += e.packed.Conds()
		s.Bytes += e.packed.Bytes()
		e.mu.Unlock()
	}
	return s
}

// Reset drops every captured stream and zeroes the hit/miss counters.
// In-flight snapshots remain valid; subsequent Capture calls re-open
// their sources.
func (c *CaptureCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = map[string]*captureEntry{}
	c.hits.Store(0)
	c.misses.Store(0)
}
