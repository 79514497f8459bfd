// Package wal is the durability subsystem's write-ahead log: a
// segmented, CRC32C-framed append log of update records. The engine
// appends every INSERT DATA / DELETE DATA statement before applying
// it, so a crash loses at most unacknowledged work; startup replays
// the log tail over the last checkpoint snapshot.
//
// On-disk layout inside the data directory:
//
//	wal-<firstLSN hex16>.seg   log segments (frames, see record.go)
//	snap-<lsn hex16>.idsnap    checkpoint snapshots (kg binary format)
//	MANIFEST                   {"snapshot", "last_lsn"}, swapped atomically
//
// The reader tolerates a torn tail — a partial or corrupt final frame
// in the final segment is truncated on open, never replayed — but
// refuses mid-log corruption: a bad frame followed by a later valid
// frame, or any bad frame in a non-final segment, is an error, because
// acknowledged records would otherwise vanish silently.
package wal

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/fault"
)

// nopLogHandler keeps the package dependency-free: wal must not import
// internal/obs (obs sits above it), so it carries its own discard
// handler for the nil-Logger default.
type nopLogHandler struct{}

func (nopLogHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopLogHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopLogHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopLogHandler{} }
func (nopLogHandler) WithGroup(string) slog.Handler             { return nopLogHandler{} }

var nopLog = slog.New(nopLogHandler{})

// FsyncPolicy selects when appends reach stable storage.
type FsyncPolicy int

// Fsync policies.
const (
	// FsyncAlways syncs after every append: an acknowledged update
	// survives kill -9 and power loss.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer: bounded data loss,
	// amortized sync cost.
	FsyncInterval
	// FsyncNone never syncs: the OS flushes eventually. Survives
	// process death (page cache) but not power loss.
	FsyncNone
)

// String renders the policy as its flag spelling.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNone:
		return "none"
	}
	return fmt.Sprintf("wal.FsyncPolicy(%d)", int(p))
}

// ParseFsyncPolicy parses the -fsync flag value.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "none":
		return FsyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|none)", s)
}

// Options configures a Log.
type Options struct {
	// Dir is the data directory (created if missing).
	Dir string
	// SegmentBytes rotates to a new segment once the active one grows
	// past this size. Default 16 MiB.
	SegmentBytes int64
	// Fsync selects the sync policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// FsyncInterval is the background sync period for FsyncInterval.
	// Default 100ms.
	FsyncInterval time.Duration
	// Logger, when non-nil, narrates segment lifecycle (open scan,
	// rotation, truncation) as structured log records.
	Logger *slog.Logger
	// FS is the filesystem the log talks to. Nil means the real one
	// (fault.OS); tests and the chaos harness pass a fault-injecting FS.
	FS fault.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = nopLog
	}
	if o.FS == nil {
		o.FS = fault.OS
	}
	return o
}

// ErrFailed marks a log that hit a write or sync error. The failure is
// sticky: a failed append may have left a torn frame at the tail, so
// appending more frames after it would bury the tear mid-log and turn a
// repairable torn tail into unrecoverable corruption. Every later
// Append fails wrapping ErrFailed; the engine responds by entering
// read-only degraded mode.
var ErrFailed = errors.New("wal: log failed")

// Stats are the log's cumulative append-path counters (mirrored into
// the engine's metrics registry at scrape time).
type Stats struct {
	Appends       uint64
	Fsyncs        uint64
	AppendedBytes uint64
}

// OpenInfo reports what Open found while scanning the existing log.
type OpenInfo struct {
	// SegmentsScanned is how many segment files were validated.
	SegmentsScanned int
	// Records is how many valid records the log holds.
	Records int
	// LastLSN is the highest valid LSN on disk (0 when empty).
	LastLSN uint64
	// TornTailTruncations counts torn tails dropped (0 or 1 per open).
	TornTailTruncations int
}

// segment is one on-disk log file; first is the LSN of its first
// record (== the log's next LSN at creation time).
type segment struct {
	first uint64
	path  string
}

// segName renders the canonical segment file name for a first LSN.
func segName(first uint64) string {
	return fmt.Sprintf("wal-%016x.seg", first)
}

// parseSegName extracts the first LSN from a segment file name.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	var v uint64
	if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), "%016x", &v); err != nil {
		return 0, false
	}
	return v, true
}

// Log is an append-only write-ahead log. Append/Sync/Close are safe
// for concurrent use; in the engine, appends additionally serialize
// under the engine's writer lock.
type Log struct {
	opts Options
	info OpenInfo

	nextLSN atomic.Uint64 // next LSN to assign (reads don't take mu)

	appends atomic.Uint64
	fsyncs  atomic.Uint64
	bytes   atomic.Uint64

	mu     sync.Mutex
	segs   []segment  // sorted by first; last is active
	f      fault.File // active segment
	size   int64
	dirty  bool
	closed bool
	failed error // sticky first write/sync failure; see ErrFailed

	// fsyncObs, when set, receives each fsync's duration in seconds.
	// It is a plain callback (not an obs.Histogram) so the dependency
	// points upward: the engine attaches its histogram via
	// SetFsyncObserver without wal importing internal/obs.
	fsyncObs atomic.Pointer[func(float64)]

	stop chan struct{} // interval-sync goroutine lifecycle
	done chan struct{}
}

// Open scans (and repairs the torn tail of) the log in opts.Dir and
// opens it for appending. A bad frame anywhere except the unreplayed
// tail of the final segment is mid-log corruption and fails the open.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: empty directory")
	}
	if err := opts.FS.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{opts: opts}

	entries, err := opts.FS.ReadDir(opts.Dir)
	if err != nil {
		return nil, err
	}
	for _, ent := range entries {
		if first, ok := parseSegName(ent.Name()); ok {
			l.segs = append(l.segs, segment{first: first, path: filepath.Join(opts.Dir, ent.Name())})
		}
	}
	sort.Slice(l.segs, func(i, j int) bool { return l.segs[i].first < l.segs[j].first })

	next := uint64(0) // expected LSN of the next record; 0 = take the first seen
	for i, seg := range l.segs {
		data, err := opts.FS.ReadFile(seg.path)
		if err != nil {
			return nil, err
		}
		last := i == len(l.segs)-1
		if next == 0 {
			next = seg.first
		} else if seg.first != next {
			return nil, fmt.Errorf("wal: segment %s starts at lsn %d, want %d (missing records)",
				seg.path, seg.first, next)
		}
		n, lastLSN, validEnd, err := scanFrames(data, next, !last, nil)
		if err != nil {
			return nil, fmt.Errorf("wal: segment %s: %w", seg.path, err)
		}
		l.info.SegmentsScanned++
		l.info.Records += n
		if n > 0 {
			l.info.LastLSN = lastLSN
			next = lastLSN + 1
		}
		if torn := int64(len(data)) - int64(validEnd); torn > 0 {
			if err := opts.FS.Truncate(seg.path, int64(validEnd)); err != nil {
				return nil, err
			}
			l.info.TornTailTruncations++
			opts.Logger.Warn("wal torn tail repaired",
				"segment", filepath.Base(seg.path), "truncated_bytes", torn)
		}
	}
	if next == 0 {
		next = 1
	}
	l.nextLSN.Store(next)

	if len(l.segs) == 0 {
		if err := l.newSegmentLocked(next); err != nil {
			return nil, err
		}
	} else {
		active := l.segs[len(l.segs)-1]
		f, err := opts.FS.OpenFile(active.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, err
		}
		l.f, l.size = f, st.Size()
	}

	if opts.Fsync == FsyncInterval {
		l.stop = make(chan struct{})
		l.done = make(chan struct{})
		go l.syncLoop()
	}
	opts.Logger.Info("wal opened",
		"dir", opts.Dir, "segments", l.info.SegmentsScanned,
		"records", l.info.Records, "last_lsn", l.info.LastLSN,
		"fsync", opts.Fsync.String())
	return l, nil
}

// SetFsyncObserver wires fn to receive each fsync's wall-clock
// duration in seconds (the engine points this at its
// ids_wal_fsync_seconds histogram). Safe to call while appends run;
// nil detaches.
func (l *Log) SetFsyncObserver(fn func(seconds float64)) {
	if fn == nil {
		l.fsyncObs.Store(nil)
		return
	}
	l.fsyncObs.Store(&fn)
}

// newSegmentLocked creates and switches to a fresh segment whose first
// record will be LSN first. Caller holds mu (or is still in Open).
func (l *Log) newSegmentLocked(first uint64) error {
	path := filepath.Join(l.opts.Dir, segName(first))
	f, err := l.opts.FS.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, segment{first: first, path: path})
	l.f, l.size = f, 0
	return nil
}

// Info reports what Open found (segments scanned, torn-tail repairs,
// last LSN at open time).
func (l *Log) Info() OpenInfo { return l.info }

// Stats returns the cumulative append-path counters.
func (l *Log) Stats() Stats {
	return Stats{
		Appends:       l.appends.Load(),
		Fsyncs:        l.fsyncs.Load(),
		AppendedBytes: l.bytes.Load(),
	}
}

// LastLSN is the LSN of the most recently appended record (0 when the
// log has never held one).
func (l *Log) LastLSN() uint64 { return l.nextLSN.Load() - 1 }

// Dir returns the log's data directory.
func (l *Log) Dir() string { return l.opts.Dir }

// SetBase advances an empty log so its next append gets lsn+1. It
// exists for the degenerate recovery where a manifest survived but
// every segment was deleted; it refuses a log that holds records.
func (l *Log) SetBase(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.info.Records > 0 || l.appends.Load() > 0 {
		return fmt.Errorf("wal: SetBase on non-empty log")
	}
	if lsn+1 <= l.nextLSN.Load() {
		return nil
	}
	// Rename the empty active segment so its name still states its
	// first LSN.
	old := l.segs[len(l.segs)-1]
	path := filepath.Join(l.opts.Dir, segName(lsn+1))
	if err := l.opts.FS.Rename(old.path, path); err != nil {
		return err
	}
	l.segs[len(l.segs)-1] = segment{first: lsn + 1, path: path}
	l.nextLSN.Store(lsn + 1)
	return nil
}

// Append assigns the next LSN to rec, writes its frame, and applies
// the fsync policy. On success the returned LSN is durable per the
// policy (immediately for FsyncAlways).
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		return 0, fmt.Errorf("%w: %v", ErrFailed, l.failed)
	}
	lsn := l.nextLSN.Load()
	rec.LSN = lsn
	frame := encodeFrame(rec)
	if _, err := l.f.Write(frame); err != nil {
		// The frame may be partially on disk (torn); see ErrFailed.
		l.failLocked(err)
		return 0, err
	}
	l.size += int64(len(frame))
	l.dirty = true
	l.nextLSN.Store(lsn + 1)
	l.appends.Add(1)
	l.bytes.Add(uint64(len(frame)))
	if l.opts.Fsync == FsyncAlways {
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	return lsn, nil
}

// failLocked records the log's first write/sync failure. Sticky: every
// later Append fails fast wrapping ErrFailed.
func (l *Log) failLocked(err error) {
	if l.failed == nil {
		l.failed = err
		l.opts.Logger.Error("wal failed; log now rejects appends", "err", err)
	}
}

// rotateLocked seals the active segment (always synced, whatever the
// policy — a sealed segment must never lose frames) and starts a new
// one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		l.failLocked(err)
		return err
	}
	sealed := l.segs[len(l.segs)-1]
	if err := l.newSegmentLocked(l.nextLSN.Load()); err != nil {
		l.failLocked(err)
		return err
	}
	l.opts.Logger.Info("wal segment rotated",
		"sealed", filepath.Base(sealed.path),
		"active", filepath.Base(l.segs[len(l.segs)-1].path),
		"next_lsn", l.nextLSN.Load())
	return nil
}

// syncLocked flushes the active segment if it has unsynced writes.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		// An fsync failure leaves durability of every dirty frame
		// unknown; the log cannot honestly acknowledge anything after
		// it.
		l.failLocked(err)
		return err
	}
	l.dirty = false
	l.fsyncs.Add(1)
	if fn := l.fsyncObs.Load(); fn != nil {
		(*fn)(time.Since(start).Seconds())
	}
	return nil
}

// Sync forces pending appends to stable storage (useful under
// FsyncInterval/FsyncNone before acknowledging a batch).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	return l.syncLocked()
}

// syncLoop is the FsyncInterval background flusher.
func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.FsyncInterval)
	defer t.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// Close syncs and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.stop != nil {
		close(l.stop)
		<-l.done
		l.stop = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	serr := l.syncLocked()
	cerr := l.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// Replay streams every valid record with LSN >= from, in LSN order,
// through fn. It reads the segment files from disk, so it observes
// exactly what a recovery after a crash would.
func (l *Log) Replay(from uint64, fn func(Record) error) error {
	l.mu.Lock()
	segs := append([]segment(nil), l.segs...)
	l.mu.Unlock()
	next := uint64(0)
	for i, seg := range segs {
		data, err := l.opts.FS.ReadFile(seg.path)
		if err != nil {
			return err
		}
		if next == 0 {
			next = seg.first
		}
		_, lastLSN, _, err := scanFrames(data, next, i < len(segs)-1, func(rec Record) error {
			if rec.LSN < from {
				return nil
			}
			return fn(rec)
		})
		if err != nil {
			return fmt.Errorf("wal: segment %s: %w", seg.path, err)
		}
		if lastLSN > 0 {
			next = lastLSN + 1
		}
	}
	return nil
}

// TruncateBefore removes whole segments every record of which has LSN
// < lsn (they are covered by a checkpoint snapshot). The active
// segment always survives.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := 0
	for keep < len(l.segs)-1 && l.segs[keep+1].first <= lsn {
		if err := l.opts.FS.Remove(l.segs[keep].path); err != nil {
			return err
		}
		keep++
	}
	if keep > 0 {
		l.opts.Logger.Info("wal truncated",
			"segments_removed", keep, "covered_below_lsn", lsn)
	}
	l.segs = append([]segment(nil), l.segs[keep:]...)
	return nil
}

// scanFrames walks the frames in data, checking LSN contiguity from
// expect, and calls fn (when non-nil) for each record. In strict mode
// (non-final segments) any bad frame or trailing garbage is an error.
// In lenient mode a bad frame ends the scan as a torn tail — unless a
// later offset still parses as a valid frame, which means the middle
// of the log was corrupted and replaying past it would silently drop
// acknowledged records: that is an error.
func scanFrames(data []byte, expect uint64, strict bool, fn func(Record) error) (n int, lastLSN uint64, validEnd int, err error) {
	off := 0
	for off < len(data) {
		rec, size, ok := parseFrame(data[off:])
		if ok && rec.LSN != expect {
			// A valid frame with the wrong LSN is corruption, not a
			// torn write.
			return n, lastLSN, off, fmt.Errorf("wal: record lsn %d at offset %d, want %d", rec.LSN, off, expect)
		}
		if !ok {
			if strict {
				return n, lastLSN, off, fmt.Errorf("wal: corrupt frame at offset %d", off)
			}
			if resyncs(data[off+1:], expect) {
				return n, lastLSN, off, fmt.Errorf("wal: corrupt frame at offset %d followed by valid frames (mid-log corruption)", off)
			}
			return n, lastLSN, off, nil // torn tail: truncate here
		}
		if fn != nil {
			if ferr := fn(rec); ferr != nil {
				return n, lastLSN, off, ferr
			}
		}
		n++
		lastLSN = rec.LSN
		expect = rec.LSN + 1
		off += size
	}
	return n, lastLSN, off, nil
}

// resyncs reports whether any offset in data parses as a valid frame
// with a plausible (>= expect) LSN — evidence that a bad frame sits in
// the middle of the log rather than at its torn end.
func resyncs(data []byte, expect uint64) bool {
	for i := 0; i+frameHeaderLen <= len(data); i++ {
		if rec, _, ok := parseFrame(data[i:]); ok && rec.LSN >= expect {
			return true
		}
	}
	return false
}
