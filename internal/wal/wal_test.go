package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ids/internal/dict"
	"ids/internal/fault"
)

func iri(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
func lit(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

// testRecord builds a distinguishable record for index i.
func testRecord(i int) Record {
	kind := KindInsert
	if i%3 == 2 {
		kind = KindDelete
	}
	return Record{
		Epoch: uint64(i + 1),
		Kind:  kind,
		Triples: []TermTriple{
			{S: iri("http://x/s"), P: iri("http://x/p"), O: lit("value-" + string(rune('a'+i%26)))},
			{S: iri("http://x/s"), P: iri("http://x/n"),
				O: dict.Term{Kind: dict.Literal, Value: "42", Datatype: "http://www.w3.org/2001/XMLSchema#integer"}},
		},
	}
}

// appendN appends n test records and returns what was written.
func appendN(t *testing.T, l *Log, n int) []Record {
	t.Helper()
	var out []Record
	for i := 0; i < n; i++ {
		rec := testRecord(i)
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		rec.LSN = lsn
		out = append(out, rec)
	}
	return out
}

// replayAll collects every record from lsn 1.
func replayAll(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if err := l.Replay(1, func(rec Record) error {
		out = append(out, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	want := appendN(t, l, 7)
	if l.LastLSN() != 7 {
		t.Fatalf("LastLSN = %d, want 7", l.LastLSN())
	}
	got := replayAll(t, l)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay mismatch:\n got %+v\nwant %+v", got, want)
	}
	if st := l.Stats(); st.Appends != 7 || st.Fsyncs < 7 || st.AppendedBytes == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Kind: KindInsert}); err == nil {
		t.Fatal("append on closed log succeeded")
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info := l2.Info(); info.Records != 3 || info.LastLSN != 3 || info.TornTailTruncations != 0 {
		t.Fatalf("open info = %+v", info)
	}
	lsn, err := l2.Append(testRecord(3))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("lsn after reopen = %d, want 4", lsn)
	}
	if got := replayAll(t, l2); len(got) != 4 || got[3].LSN != 4 {
		t.Fatalf("replay after reopen = %d records", len(got))
	}
}

func TestSegmentRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64}) // rotate every record
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := appendN(t, l, 10)
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments after rotation, got %d", len(segs))
	}
	if got := replayAll(t, l); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay across segments mismatch (%d records)", len(got))
	}

	// Records 1..5 checkpointed: their segments may go.
	if err := l.TruncateBefore(6); err != nil {
		t.Fatal(err)
	}
	after, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(after) >= len(segs) {
		t.Fatalf("truncate removed nothing (%d -> %d segments)", len(segs), len(after))
	}
	var got []Record
	if err := l.Replay(6, func(rec Record) error { got = append(got, rec); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[5:]) {
		t.Fatalf("replay from 6 after truncate = %d records, want 5", len(got))
	}

	// The active segment survives even a truncate past the end.
	if err := l.TruncateBefore(1 << 60); err != nil {
		t.Fatal(err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(left) != 1 {
		t.Fatalf("active segment not kept: %d files", len(left))
	}
}

func TestReopenAfterTruncateContinues(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 6)
	if err := l.TruncateBefore(5); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 6 {
		t.Fatalf("LastLSN after reopen = %d, want 6", l2.LastLSN())
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, pol := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			l, err := Open(Options{Dir: t.TempDir(), Fsync: pol, FsyncInterval: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, l, 3)
			switch pol {
			case FsyncAlways:
				if l.Stats().Fsyncs < 3 {
					t.Fatalf("always: %d fsyncs", l.Stats().Fsyncs)
				}
			case FsyncInterval:
				deadline := time.Now().Add(2 * time.Second)
				for l.Stats().Fsyncs == 0 && time.Now().Before(deadline) {
					time.Sleep(5 * time.Millisecond)
				}
				if l.Stats().Fsyncs == 0 {
					t.Fatal("interval: no background fsync")
				}
			case FsyncNone:
				if l.Stats().Fsyncs != 0 {
					t.Fatalf("none: %d fsyncs before close", l.Stats().Fsyncs)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			if got := len(mustReplay(t, Options{Dir: l.Dir()})); got != 3 {
				t.Fatalf("replay after close = %d records", got)
			}
		})
	}
}

// mustReplay opens dir read-side and returns all records.
func mustReplay(t *testing.T, opts Options) []Record {
	t.Helper()
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return replayAll(t, l)
}

func TestParseFsyncPolicy(t *testing.T) {
	for _, s := range []string{"always", "interval", "none"} {
		p, err := ParseFsyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("round trip %q: %v, %v", s, p, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m, err := ReadManifestFS(fault.OS, dir)
	if err != nil || m != nil {
		t.Fatalf("fresh dir manifest = %v, %v", m, err)
	}
	want := Manifest{Snapshot: "snap-0000000000000007.idsnap", LastLSN: 7}
	if err := WriteManifestFS(fault.OS, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFS(fault.OS, dir)
	if err != nil || got == nil || *got != want {
		t.Fatalf("manifest = %v, %v", got, err)
	}
	// Overwrite is atomic-in-place.
	want2 := Manifest{Snapshot: "snap-0000000000000009.idsnap", LastLSN: 9}
	if err := WriteManifestFS(fault.OS, dir, want2); err != nil {
		t.Fatal(err)
	}
	if got, _ := ReadManifestFS(fault.OS, dir); *got != want2 {
		t.Fatalf("manifest after overwrite = %v", got)
	}
	// Corrupt manifests are errors, not nil.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFS(fault.OS, dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"snapshot":"../../etc/passwd","last_lsn":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFS(fault.OS, dir); err == nil {
		t.Fatal("path-escaping snapshot name accepted")
	}
}

func TestSetBase(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetBase(41); err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(testRecord(0))
	if err != nil || lsn != 42 {
		t.Fatalf("append after SetBase: lsn %d, %v", lsn, err)
	}
	if err := l.SetBase(99); err == nil {
		t.Fatal("SetBase on non-empty log succeeded")
	}
	l.Close()
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.LastLSN() != 42 {
		t.Fatalf("LastLSN after reopen = %d, want 42", l2.LastLSN())
	}
}

func TestReplayFromFilters(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendN(t, l, 5)
	var lsns []uint64
	if err := l.Replay(4, func(rec Record) error { lsns = append(lsns, rec.LSN); return nil }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lsns, []uint64{4, 5}) {
		t.Fatalf("replay from 4 = %v", lsns)
	}
}

func TestVecUpsertRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	want := Record{LSN: 1, Epoch: 1, Kind: KindVecUpsert,
		Vec: &VecUpsert{Store: "fp", Key: "http://x/c1", Metric: 2, Vec: []float32{1, -2.5, 0.125}}}
	if _, err := l.Append(Record{Epoch: 1, Kind: KindVecUpsert, Vec: want.Vec}); err != nil {
		t.Fatal(err)
	}
	// A triple record interleaves fine with vector records.
	if _, err := l.Append(Record{Epoch: 2, Kind: KindInsert, Triples: []TermTriple{{
		S: dict.Term{Kind: dict.IRI, Value: "http://x/s"},
		P: dict.Term{Kind: dict.IRI, Value: "http://x/p"},
		O: dict.Term{Kind: dict.Literal, Value: "o"},
	}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(Options{Dir: dir, Fsync: FsyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var got []Record
	if err := l.Replay(0, func(rec Record) error {
		got = append(got, rec)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !reflect.DeepEqual(got[0], want) {
		t.Fatalf("replay = %+v", got)
	}
	if got[1].Kind != KindInsert || got[1].Vec != nil {
		t.Fatalf("second record = %+v", got[1])
	}
	if s := KindVecUpsert.String(); s != "VECTOR UPSERT" {
		t.Fatalf("kind string = %q", s)
	}
}

func TestVecUpsertDecodeRejectsOverlongDim(t *testing.T) {
	// Hand-build a body whose declared dimension exceeds the payload.
	b := appendUvarint(nil, 1)         // lsn
	b = appendUvarint(b, 1)            // epoch
	b = append(b, byte(KindVecUpsert)) // kind
	b = appendString(b, "fp")          // store
	b = appendString(b, "k")           // key
	b = append(b, 0)                   // metric
	b = appendUvarint(b, 1<<30)        // dim: implausible
	if _, err := decodeBody(b); err == nil {
		t.Fatal("overlong dimension accepted")
	}
}
