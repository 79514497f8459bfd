package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// buildLog writes n records into a fresh directory and returns the
// single segment's path and the byte offset where the last frame
// starts.
func buildLog(t *testing.T, n int) (dir, seg string, lastFrameStart int64) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if i == n-1 {
			st, err := os.Stat(activeSegPath(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			lastFrameStart = st.Size()
		}
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, activeSegPath(t, dir), lastFrameStart
}

func activeSegPath(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	return segs[0]
}

// TestTornTailTruncateEveryOffset truncates the segment at every byte
// offset inside the last frame: recovery must keep the first n-1
// records and repair the tail.
func TestTornTailTruncateEveryOffset(t *testing.T) {
	const n = 4
	dir, seg, lastStart := buildLog(t, n)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for cut := lastStart + 1; cut < int64(len(data)); cut++ {
		if err := os.WriteFile(seg, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		info := l.Info()
		if info.Records != n-1 || info.LastLSN != n-1 {
			t.Fatalf("cut at %d: info = %+v", cut, info)
		}
		if info.TornTailTruncations != 1 {
			t.Fatalf("cut at %d: truncation info = %+v", cut, info)
		}
		// The repair removed exactly the cut-lastStart torn bytes.
		if st, err := os.Stat(seg); err != nil || st.Size() != lastStart {
			t.Fatalf("cut at %d: segment after repair: %v, %v; want %d bytes", cut, st, err, lastStart)
		}
		if got := replayAll(t, l); len(got) != n-1 {
			t.Fatalf("cut at %d: replayed %d records", cut, len(got))
		}
		// The torn LSN is reusable: it was never acknowledged.
		if lsn, err := l.Append(testRecord(n)); err != nil || lsn != n {
			t.Fatalf("cut at %d: append -> %d, %v", cut, lsn, err)
		}
		l.Close()
	}
}

// TestTornTailCleanCut truncating exactly at the last frame boundary
// is not torn — just a shorter log.
func TestTornTailCleanCut(t *testing.T) {
	const n = 4
	dir, seg, lastStart := buildLog(t, n)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:lastStart], 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info := l.Info(); info.Records != n-1 || info.TornTailTruncations != 0 {
		t.Fatalf("clean cut info = %+v", info)
	}
}

// TestTornTailCorruptEveryOffset flips one byte at every offset inside
// the last frame: recovery must drop the bad frame (and only it).
func TestTornTailCorruptEveryOffset(t *testing.T) {
	const n = 4
	dir, seg, lastStart := buildLog(t, n)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	for off := lastStart; off < int64(len(data)); off++ {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x5a
		if err := os.WriteFile(seg, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("corrupt at %d: %v", off, err)
		}
		info := l.Info()
		if info.Records != n-1 || info.TornTailTruncations != 1 {
			t.Fatalf("corrupt at %d: info = %+v", off, info)
		}
		if got := replayAll(t, l); len(got) != n-1 {
			t.Fatalf("corrupt at %d: replayed %d records", off, len(got))
		}
		l.Close()
	}
}

// TestMidLogCorruptionRejected flips a byte in every frame except the
// last: valid frames follow the bad one, so recovery must refuse to
// silently drop acknowledged records.
func TestMidLogCorruptionRejected(t *testing.T) {
	const n = 4
	_, seg, lastStart := buildLog(t, n)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	seg2 := filepath.Join(dir2, filepath.Base(seg))
	for _, off := range []int64{0, 4, frameHeaderLen, lastStart / 2, lastStart - 1} {
		corrupt := append([]byte(nil), data...)
		corrupt[off] ^= 0x5a
		if err := os.WriteFile(seg2, corrupt, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(Options{Dir: dir2}); err == nil {
			t.Fatalf("corrupt at %d: mid-log corruption accepted", off)
		}
	}
}

// TestEarlierSegmentCorruptionRejected corrupts a sealed (non-final)
// segment: strict scanning must fail the open even at its tail.
func TestEarlierSegmentCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 2 {
		t.Fatalf("segments = %v", segs)
	}
	first := segs[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x5a
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("corrupt sealed segment accepted")
	}
}

// TestMissingSegmentRejected deleting a middle segment leaves an LSN
// gap that recovery must refuse.
func TestMissingSegmentRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("segments = %v", segs)
	}
	if err := os.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, SegmentBytes: 64}); err == nil {
		t.Fatal("missing middle segment accepted")
	}
}
