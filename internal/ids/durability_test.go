package ids

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ids/internal/dict"
	"ids/internal/fault"
	"ids/internal/mpp"
	"ids/internal/vecstore"
	"ids/internal/wal"
)

func iriTerm(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
func litTerm(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

// durCfg returns a test durability config with background
// checkpointing disabled, so tests control exactly when checkpoints
// happen.
func durCfg(dir string) *DurabilityConfig {
	return &DurabilityConfig{Dir: dir, CheckpointInterval: -1, CheckpointEvery: -1}
}

func launchDurable(t *testing.T, cfg LaunchConfig) *Instance {
	t.Helper()
	if cfg.Topo.Nodes == 0 {
		cfg.Topo = mpp.Topology{Nodes: 1, RanksPerNode: 2}
	}
	inst, err := Launcher{}.Launch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// copyDir simulates a crash: the on-disk state at this instant,
// divorced from every in-memory structure of the running instance.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestDurableLaunchAndRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	for i := 0; i < 5; i++ {
		res, err := inst.Engine.Update(fmt.Sprintf(
			`INSERT DATA { <http://x/p%d> <http://x/name> "person %d" . }`, i, i))
		if err != nil {
			t.Fatal(err)
		}
		if res.LSN != uint64(i+1) {
			t.Fatalf("update %d: lsn = %d", i, res.LSN)
		}
	}
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Clean shutdown checkpoints, so the manifest covers everything.
	man, err := wal.ReadManifestFS(fault.OS, dir)
	if err != nil || man == nil || man.LastLSN != 5 {
		t.Fatalf("manifest after teardown = %+v, %v", man, err)
	}

	inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer inst2.Teardown()
	rec := inst2.Recovery
	if rec == nil || rec.LastLSN != 5 || rec.SnapshotLSN != 5 || rec.ReplayedRecords != 0 {
		t.Fatalf("recovery = %+v", rec)
	}
	q, err := inst2.Engine.Query(`SELECT ?s ?n WHERE { ?s <http://x/name> ?n . } ORDER BY ?n`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Rows) != 5 {
		t.Fatalf("recovered rows = %d, want 5", len(q.Rows))
	}
	// LSNs continue past the recovered position.
	res, err := inst2.Engine.Update(`INSERT DATA { <http://x/p9> <http://x/name> "nine" . }`)
	if err != nil || res.LSN != 6 {
		t.Fatalf("post-recovery lsn = %d, %v", res.LSN, err)
	}
}

// TestRecoveredStateWinsOverSeed a recovered data directory takes
// precedence over Graph/NTriplesPath seeds.
func TestRecoveredStateWinsOverSeed(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	if _, err := inst.Engine.Update(`INSERT DATA { <http://x/a> <http://x/v> "durable" . }`); err != nil {
		t.Fatal(err)
	}
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	inst2 := launchDurable(t, LaunchConfig{Graph: peopleGraph(2), Durability: durCfg(dir)})
	defer inst2.Teardown()
	q, err := inst2.Engine.Query(`SELECT ?v WHERE { <http://x/a> <http://x/v> ?v . }`)
	if err != nil || len(q.Rows) != 1 {
		t.Fatalf("durable triple lost: %v, %v", q, err)
	}
	if n := inst2.Engine.Graph.Len(); n != 1 {
		t.Fatalf("seed graph overrode recovered state: %d triples", n)
	}
}

// TestCrashAfterAppendRecovers an acknowledged append whose apply
// never ran (crash between append and apply) must re-apply on restart.
func TestCrashAfterAppendRecovers(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	if _, err := inst.Engine.Update(`INSERT DATA { <http://x/a> <http://x/v> "one" . }`); err != nil {
		t.Fatal(err)
	}
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	// Append a record directly to the log — on disk this is exactly the
	// state a crash between Append and applyLocked leaves behind.
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(wal.Record{
		Epoch: 2, Kind: wal.KindInsert,
		Triples: []wal.TermTriple{{
			S: iriTerm("http://x/b"), P: iriTerm("http://x/v"), O: litTerm("two"),
		}},
	})
	if err != nil || lsn != 2 {
		t.Fatalf("manual append: lsn %d, %v", lsn, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer inst2.Teardown()
	if inst2.Recovery.ReplayedRecords != 1 || inst2.Recovery.LastLSN != 2 {
		t.Fatalf("recovery = %+v", inst2.Recovery)
	}
	q, err := inst2.Engine.Query(`SELECT ?v WHERE { <http://x/b> <http://x/v> ?v . }`)
	if err != nil || len(q.Rows) != 1 {
		t.Fatalf("appended-not-applied record not recovered: %v, %v", q, err)
	}
}

// TestCrashMidCheckpoint walks the checkpoint protocol's crash points:
// at each one, restart must come up on a consistent (snapshot, LSN)
// pair with no acknowledged update lost.
func TestCrashMidCheckpoint(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer inst.Teardown()
	for i := 0; i < 3; i++ {
		if _, err := inst.Engine.Update(fmt.Sprintf(
			`INSERT DATA { <http://x/c%d> <http://x/v> "v%d" . }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := inst.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if _, err := inst.Engine.Update(fmt.Sprintf(
			`INSERT DATA { <http://x/c%d> <http://x/v> "v%d" . }`, i, i)); err != nil {
			t.Fatal(err)
		}
	}

	verify := func(t *testing.T, dir string) {
		inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
		defer inst2.Teardown()
		q, err := inst2.Engine.Query(`SELECT ?s WHERE { ?s <http://x/v> ?v . } ORDER BY ?s`)
		if err != nil {
			t.Fatal(err)
		}
		if len(q.Rows) != 6 {
			t.Fatalf("recovered %d rows, want 6", len(q.Rows))
		}
		if lsn := inst2.Recovery.LastLSN; lsn != 6 {
			t.Fatalf("recovered lsn = %d, want 6", lsn)
		}
	}

	t.Run("snapshot-temp-stranded", func(t *testing.T) {
		crash := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crash, "snap-stranded.tmp"), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, crash)
		if _, err := os.Stat(filepath.Join(crash, "snap-stranded.tmp")); !os.IsNotExist(err) {
			t.Fatal("stranded temp snapshot not swept")
		}
	})
	t.Run("snapshot-renamed-manifest-old", func(t *testing.T) {
		// Crash after the new snapshot's rename but before the manifest
		// swap: the extra snapshot file must be ignored (the manifest
		// still names the old one).
		crash := copyDir(t, dir)
		if err := os.WriteFile(filepath.Join(crash, snapName(6)), []byte("not a snapshot"), 0o644); err != nil {
			t.Fatal(err)
		}
		verify(t, crash)
	})
	t.Run("manifest-new-wal-not-truncated", func(t *testing.T) {
		// Crash after the manifest swap but before log truncation: the
		// WAL still holds records the snapshot covers; replay must skip
		// them (idempotently re-applying would also be correct — but
		// they must not fail recovery).
		crash := copyDir(t, dir)
		inst3 := launchDurable(t, LaunchConfig{Durability: durCfg(crash)})
		if _, err := inst3.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := inst3.Teardown(); err != nil {
			t.Fatal(err)
		}
		verify(t, crash)
	})
}

// TestTornTailLaunchRecovery a torn final frame (partial write at
// crash) is repaired at launch and reported in RecoveryStats.
func TestTornTailLaunchRecovery(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	for i := 0; i < 3; i++ {
		if _, err := inst.Engine.Update(fmt.Sprintf(
			`INSERT DATA { <http://x/t%d> <http://x/v> "v" . }`, i)); err != nil {
			t.Fatal(err)
		}
	}
	crash := copyDir(t, dir)
	inst.Teardown()
	segs, err := filepath.Glob(filepath.Join(crash, "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	b, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(crash)})
	defer inst2.Teardown()
	rec := inst2.Recovery
	if rec.TornTailTruncations != 1 || rec.LastLSN != 2 || rec.ReplayedRecords != 2 {
		t.Fatalf("recovery = %+v", rec)
	}
	q, err := inst2.Engine.Query(`SELECT ?s WHERE { ?s <http://x/v> ?v . }`)
	if err != nil || len(q.Rows) != 2 {
		t.Fatalf("rows after torn-tail repair = %v, %v", q, err)
	}
}

// testWorkload builds a deterministic mixed insert/delete workload.
func testWorkload(n int) []string {
	rng := rand.New(rand.NewSource(42))
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		subj := fmt.Sprintf("http://x/e%d", rng.Intn(20))
		switch rng.Intn(4) {
		case 0:
			out = append(out, fmt.Sprintf(
				`DELETE DATA { <%s> <http://x/tag> "tag%d" . }`, subj, rng.Intn(5)))
		case 1:
			out = append(out, fmt.Sprintf(
				`INSERT DATA { <%s> <http://x/desc> "entity %d described with token%d" . }`,
				subj, i, rng.Intn(8)))
		default:
			out = append(out, fmt.Sprintf(
				`INSERT DATA { <%s> <http://x/tag> "tag%d" . }`, subj, rng.Intn(5)))
		}
	}
	return out
}

// testVectors builds a small deterministic store.
func testVectors(t *testing.T) *vecstore.Store {
	t.Helper()
	vs, err := vecstore.New(8, vecstore.Cosine)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		vec := make([]float32, 8)
		for d := range vec {
			vec[d] = float32((i*7+d*3)%11) - 5
		}
		if err := vs.Add(fmt.Sprintf("http://x/e%d", i), vec); err != nil {
			t.Fatal(err)
		}
	}
	return vs
}

// TestRecoveryEquivalence the property test: (snapshot + WAL replay)
// and an always-live engine must answer an identical workload of
// graph queries and vector searches identically.
func TestRecoveryEquivalence(t *testing.T) {
	workload := testWorkload(60)

	// Live engine: never crashes, never checkpoints.
	live := launchDurable(t, LaunchConfig{})
	defer live.Teardown()
	// Durable engine: checkpoint mid-workload, crash at the end.
	dir := t.TempDir()
	dur := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer dur.Teardown()

	for i, u := range workload {
		if _, err := live.Engine.Update(u); err != nil {
			t.Fatal(err)
		}
		if _, err := dur.Engine.Update(u); err != nil {
			t.Fatal(err)
		}
		if i == len(workload)/2 {
			if _, err := dur.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	crash := copyDir(t, dir)
	rec := launchDurable(t, LaunchConfig{Durability: durCfg(crash)})
	defer rec.Teardown()

	for _, e := range []*Engine{live.Engine, rec.Engine} {
		if err := e.AttachVectors("emb", testVectors(t)); err != nil {
			t.Fatal(err)
		}
	}

	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://x/tag> ?o . } ORDER BY ?s ?o`,
		`SELECT ?s ?d WHERE { ?s <http://x/desc> ?d . } ORDER BY ?d`,
		`SELECT ?s WHERE { ?s <http://x/tag> "tag1" . ?s <http://x/desc> ?d . } ORDER BY ?s`,
	}
	for _, q := range queries {
		lr, err := live.Engine.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := rec.Engine.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Engine.Strings(lr), rec.Engine.Strings(rr)) {
			t.Fatalf("query %q diverged:\n live %v\n rec  %v",
				q, live.Engine.Strings(lr), rec.Engine.Strings(rr))
		}
	}
	for _, key := range []string{"http://x/e1", "http://x/e7"} {
		lv, err := live.Engine.VectorSearch("emb", key, 5)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := rec.Engine.VectorSearch("emb", key, 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lv, rv) {
			t.Fatalf("vector search %q diverged:\n live %v\n rec  %v", key, lv, rv)
		}
	}
}

// TestDurableConcurrentStress hammers a durable instance with
// concurrent updates, queries and checkpoints (run under -race), then
// crash-recovers and checks nothing acknowledged was lost.
func TestDurableConcurrentStress(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: &DurabilityConfig{
		Dir:                dir,
		Fsync:              wal.FsyncInterval,
		CheckpointInterval: 5 * time.Millisecond,
		CheckpointEvery:    16,
	}})
	const (
		writers           = 4
		updatesPerWriter  = 25
		totalAcknowledged = writers * updatesPerWriter
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < updatesPerWriter; i++ {
				_, err := inst.Engine.Update(fmt.Sprintf(
					`INSERT DATA { <http://x/w%d-%d> <http://x/v> "x" . }`, w, i))
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := inst.Engine.Query(`SELECT ?s WHERE { ?s <http://x/v> ?v . }`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}

	inst2 := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer inst2.Teardown()
	if got := inst2.Engine.Graph.Len(); got != totalAcknowledged {
		t.Fatalf("recovered %d triples, want %d", got, totalAcknowledged)
	}
	if lsn := inst2.Recovery.LastLSN; lsn != totalAcknowledged {
		t.Fatalf("recovered lsn = %d, want %d", lsn, totalAcknowledged)
	}
}

// TestCheckpointEndpoint exercises POST /checkpoint and the WAL /
// checkpoint metrics over HTTP, including the LSN in update responses.
func TestCheckpointEndpoint(t *testing.T) {
	dir := t.TempDir()
	inst := launchDurable(t, LaunchConfig{Durability: durCfg(dir)})
	defer inst.Teardown()
	c := inst.Client()

	res, err := c.Update(`INSERT DATA { <http://x/h> <http://x/v> "http" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN != 1 {
		t.Fatalf("update over HTTP lsn = %d", res.LSN)
	}
	info, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if info.LastLSN != 1 || info.Snapshot == "" {
		t.Fatalf("checkpoint = %+v", info)
	}
	// Nothing new: the next background-style checkpoint would skip,
	// but the endpoint forces a rewrite and still reports LastLSN 1.
	info2, err := c.Checkpoint()
	if err != nil || info2.LastLSN != 1 {
		t.Fatalf("second checkpoint = %+v, %v", info2, err)
	}

	text, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"ids_wal_appends_total 1",
		// Initial checkpoint at launch plus the two forced ones.
		"ids_checkpoints_total 3",
		"ids_checkpoint_last_lsn 1",
		"ids_recovery_last_lsn 0",
	} {
		if !strings.Contains(text, metric) {
			t.Errorf("metrics missing %q", metric)
		}
	}

	// Non-durable servers reject /checkpoint.
	plain := launchDurable(t, LaunchConfig{})
	defer plain.Teardown()
	if _, err := plain.Client().Checkpoint(); err == nil {
		t.Fatal("checkpoint accepted without durability")
	}
}
