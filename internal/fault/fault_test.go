package fault

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if err := in.Check(OpWrite, "x"); err != nil {
		t.Fatalf("nil injector fired: %v", err)
	}
	if err, _ := in.CheckWrite("x", 10); err != nil {
		t.Fatalf("nil injector fired on write: %v", err)
	}
	if in.Fired(OpWrite) || in.Events() != nil {
		t.Fatal("nil injector reported events")
	}
}

func TestNthRuleFiresExactlyOnce(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Op: OpSync, Nth: 3})
	for i := 1; i <= 6; i++ {
		err := in.Check(OpSync, "wal-0000000000000001.seg")
		if i == 3 && !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: want ErrInjected, got %v", i, err)
		}
		if i != 3 && err != nil {
			t.Fatalf("call %d: unexpected %v", i, err)
		}
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].Op != OpSync || ev[0].Seq != 1 {
		t.Fatalf("events = %+v", ev)
	}
}

func TestPathGlobMatchesBaseName(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Op: OpWrite, Path: "wal-*.seg", Nth: 1})
	if err := in.Check(OpWrite, "/some/dir/MANIFEST"); err != nil {
		t.Fatalf("non-matching path fired: %v", err)
	}
	if err := in.Check(OpWrite, "/some/dir/wal-0000000000000001.seg"); err == nil {
		t.Fatal("matching base name did not fire")
	}
}

func TestDisarmSuspendsCountingAndFiring(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Op: OpWrite, Nth: 2})
	in.Disarm()
	for i := 0; i < 10; i++ {
		if err := in.Check(OpWrite, "x"); err != nil {
			t.Fatalf("disarmed injector fired: %v", err)
		}
	}
	in.Arm()
	if err := in.Check(OpWrite, "x"); err != nil {
		t.Fatalf("first armed call fired early: %v", err)
	}
	if err := in.Check(OpWrite, "x"); err == nil {
		t.Fatal("second armed call did not fire: disarm leaked matches")
	}
}

func TestProbRuleIsDeterministicPerSeed(t *testing.T) {
	fires := func(seed int64) []int {
		in := NewInjector(seed)
		in.Add(Rule{Op: OpRead, Prob: 0.3})
		var out []int
		for i := 0; i < 50; i++ {
			if in.Check(OpRead, "obj") != nil {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := fires(42), fires(42)
	if len(a) == 0 {
		t.Fatal("p=0.3 over 50 draws never fired")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
}

func TestCustomErrAndOnce(t *testing.T) {
	in := NewInjector(1)
	in.Add(Rule{Op: OpWrite, Prob: 1, Err: ErrNoSpace, Once: true})
	err, _ := in.CheckWrite("index.json", 128)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("want ErrNoSpace, got %v", err)
	}
	if err, _ := in.CheckWrite("index.json", 128); err != nil {
		t.Fatalf("Once rule fired twice: %v", err)
	}
}

func TestTornWritePersistsStrictPrefix(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(7)
	in.Add(Rule{Op: OpWrite, Nth: 1, Torn: true})
	fsys := NewFS(in)

	f, err := fsys.OpenFile(filepath.Join(dir, "seg"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("torn write returned no error")
	}
	if n >= len(payload) {
		t.Fatalf("torn write persisted %d of %d bytes: not a strict prefix", n, len(payload))
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload[:n]) {
		t.Fatalf("on-disk bytes %q != reported prefix %q", got, payload[:n])
	}
	ev := in.Events()
	if len(ev) != 1 || ev[0].TornBytes != n {
		t.Fatalf("event %+v does not record torn=%d", ev, n)
	}
}

func TestFaultFSRenameMatchesDestination(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(1)
	in.Add(Rule{Op: OpRename, Path: "MANIFEST", Nth: 1})
	fsys := NewFS(in)

	tmp := filepath.Join(dir, "MANIFEST.tmp-1")
	if err := os.WriteFile(tmp, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := fsys.Rename(tmp, filepath.Join(dir, "MANIFEST"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("rename to MANIFEST did not fire: %v", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "MANIFEST")); statErr == nil {
		t.Fatal("failed rename still moved the file")
	}
}

func TestOSPassthroughRoundTrip(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "f")
	if err := OS.WriteFile(name, []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := OS.ReadFile(name)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := OS.SyncDir(dir); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
	f, err := OS.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, _ = OS.ReadFile(name)
	if string(b) != "hello world" {
		t.Fatalf("append through OS File = %q", b)
	}
}

func TestFsyncFaultLeavesBytesVisible(t *testing.T) {
	// An injected fsync failure must not lose already-written bytes:
	// they stay in the OS file (the indeterminate-durability model).
	dir := t.TempDir()
	in := NewInjector(3)
	in.Add(Rule{Op: OpSync, Nth: 1})
	fsys := NewFS(in)
	f, err := fsys.OpenFile(filepath.Join(dir, "seg"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("acked?")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault did not fire: %v", err)
	}
	f.Close()
	b, _ := os.ReadFile(filepath.Join(dir, "seg"))
	if string(b) != "acked?" {
		t.Fatalf("bytes after failed fsync = %q", b)
	}
}
