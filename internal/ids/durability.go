package ids

import (
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/fault"
	"ids/internal/kg"
	"ids/internal/vecstore"
	"ids/internal/wal"
)

// This file is the durability layer on top of internal/wal: startup
// recovery (manifest snapshot + log replay) and the background
// checkpointer that periodically folds the log back into a snapshot.
//
// Invariant: the manifest always names a snapshot that is consistent
// with LastLSN — the snapshot contains exactly the effects of records
// 1..LastLSN. Checkpointing writes the new snapshot and manifest via
// temp-file + rename, so a crash at any point leaves either the old
// pair or the new pair, never a mix.

// DurabilityConfig enables write-ahead logging and checkpointing for a
// launched instance. The zero Dir means "not durable"; all other
// fields default sensibly.
type DurabilityConfig struct {
	// Dir holds the WAL segments, snapshots and MANIFEST.
	Dir string
	// Fsync is the WAL durability policy (always | interval | none);
	// the interval policy syncs every 100ms, and segments rotate at
	// 16 MiB (the wal package defaults).
	Fsync wal.FsyncPolicy
	// CheckpointInterval is how often the background checkpointer
	// runs (default 30s; negative disables the timer).
	CheckpointInterval time.Duration
	// CheckpointEvery checkpoints after this many updates regardless
	// of the timer (default 256; negative disables).
	CheckpointEvery int
	// FS is the filesystem the WAL, checkpointer and recovery talk to.
	// Nil means the real one; the chaos harness injects faults here.
	FS fault.FS
}

func (c DurabilityConfig) withDefaults() DurabilityConfig {
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 256
	}
	if c.FS == nil {
		c.FS = fault.OS
	}
	return c
}

// RecoveryStats describes what startup recovery did.
type RecoveryStats struct {
	// Snapshot is the manifest snapshot that seeded the graph ("" on
	// first launch).
	Snapshot string `json:"snapshot"`
	// SnapshotLSN is the last LSN folded into that snapshot.
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// ReplayedRecords is how many WAL records were re-applied.
	ReplayedRecords int `json:"replayed_records"`
	// SegmentsScanned / TornTailTruncations mirror wal.OpenInfo.
	SegmentsScanned     int `json:"segments_scanned"`
	TornTailTruncations int `json:"torn_tail_truncations"`
	// LastLSN is the engine's durable position after recovery.
	LastLSN uint64 `json:"last_lsn"`
}

// CheckpointInfo reports one completed checkpoint (also the /checkpoint
// response body).
type CheckpointInfo struct {
	Snapshot string  `json:"snapshot"`
	LastLSN  uint64  `json:"last_lsn"`
	Seconds  float64 `json:"seconds"`
	// Skipped is set when nothing changed since the previous
	// checkpoint, so no new snapshot was written.
	Skipped bool `json:"skipped,omitempty"`
}

// snapName names the snapshot covering records 1..lsn, mirroring the
// WAL's segment naming.
func snapName(lsn uint64) string {
	return fmt.Sprintf("snap-%016x.idsnap", lsn)
}

// vecsName names the vector-store container covering records 1..lsn.
func vecsName(lsn uint64) string {
	return fmt.Sprintf("vecs-%016x.idsvecs", lsn)
}

// openDurable performs the read-side of recovery: load the manifest's
// snapshot (if any) re-sharded to nshards, open the log (repairing a
// torn tail), and cross-check the two. The returned graph is nil on
// first launch (no manifest) — the caller seeds the graph as usual.
func openDurable(cfg DurabilityConfig, nshards int, rec *RecoveryStats, lg *slog.Logger) (*kg.Graph, *wal.Log, *wal.Manifest, error) {
	if err := cfg.FS.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	// A crash mid-checkpoint can strand temp files; they are never
	// referenced by the manifest, so sweep them.
	for _, pat := range []string{"snap-*.tmp", "vecs-*.tmp", wal.ManifestName + ".tmp-*"} {
		stale, _ := cfg.FS.Glob(filepath.Join(cfg.Dir, pat))
		for _, s := range stale {
			cfg.FS.Remove(s)
		}
	}
	man, err := wal.ReadManifestFS(cfg.FS, cfg.Dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var g *kg.Graph
	if man != nil {
		f, err := cfg.FS.Open(filepath.Join(cfg.Dir, man.Snapshot))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ids: manifest snapshot: %w", err)
		}
		g, err = kg.LoadSnapshot(f, nshards)
		f.Close()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("ids: manifest snapshot %s: %w", man.Snapshot, err)
		}
	}
	l, err := wal.Open(wal.Options{
		Dir:    cfg.Dir,
		Fsync:  cfg.Fsync,
		Logger: lg,
		FS:     cfg.FS,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	info := l.Info()
	rec.SegmentsScanned = info.SegmentsScanned
	rec.TornTailTruncations = info.TornTailTruncations
	if man != nil {
		rec.Snapshot = man.Snapshot
		rec.SnapshotLSN = man.LastLSN
		last := l.LastLSN()
		switch {
		case last == 0 && man.LastLSN > 0:
			// The log is empty but the snapshot is ahead (segments were
			// truncated away); future appends continue the LSN sequence.
			if err := l.SetBase(man.LastLSN); err != nil {
				l.Close()
				return nil, nil, nil, err
			}
		case last < man.LastLSN:
			l.Close()
			return nil, nil, nil, fmt.Errorf(
				"ids: wal ends at lsn %d but checkpoint %s covers %d: log truncated after checkpoint",
				last, man.Snapshot, man.LastLSN)
		case info.Records > 0 && last-uint64(info.Records)+1 > man.LastLSN+1:
			l.Close()
			return nil, nil, nil, fmt.Errorf(
				"ids: wal starts at lsn %d but checkpoint %s only covers %d: records missing",
				last-uint64(info.Records)+1, man.Snapshot, man.LastLSN)
		}
	}
	return g, l, man, nil
}

// durability owns the background checkpointer for one instance.
type durability struct {
	e   *Engine
	log *wal.Log
	cfg DurabilityConfig

	// ckptMu serializes checkpoints (timer, update-count kicks, and
	// explicit /checkpoint requests).
	ckptMu sync.Mutex
	last   CheckpointInfo // under ckptMu; zero until the first checkpoint

	// pending counts updates since the last checkpoint; lastLSN is the
	// position the last checkpoint covered.
	pending  atomic.Int64
	lastLSN  atomic.Uint64
	kick     chan struct{}
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

func newDurability(e *Engine, l *wal.Log, cfg DurabilityConfig) *durability {
	return &durability{
		e: e, log: l, cfg: cfg,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
}

// noteUpdate is the engine's walNotify hook; it runs under the writer
// lock and therefore must not block (the kick send is lossy: one
// pending kick is enough).
func (d *durability) noteUpdate() {
	if d.cfg.CheckpointEvery <= 0 {
		return
	}
	if d.pending.Add(1) >= int64(d.cfg.CheckpointEvery) {
		select {
		case d.kick <- struct{}{}:
		default:
		}
	}
}

// start launches the checkpoint loop.
func (d *durability) start() { go d.loop() }

func (d *durability) loop() {
	defer close(d.done)
	var tick <-chan time.Time
	if d.cfg.CheckpointInterval > 0 {
		t := time.NewTicker(d.cfg.CheckpointInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-d.stop:
			return
		case <-tick:
		case <-d.kick:
		}
		// Best effort: the error metric records failures; the next
		// trigger retries with the log intact.
		_, _ = d.checkpoint(false)
	}
}

// close stops the loop, takes a final checkpoint so a clean shutdown
// restarts from a snapshot alone, and closes the log.
func (d *durability) close() error {
	d.stopOnce.Do(func() { close(d.stop) })
	<-d.done
	_, cerr := d.checkpoint(false)
	err := d.log.Close()
	if err == nil {
		err = cerr
	}
	return err
}

// Checkpoint forces a checkpoint now (the /checkpoint endpoint and the
// CLI's checkpoint command).
func (d *durability) Checkpoint() (CheckpointInfo, error) {
	return d.checkpoint(true)
}

// checkpoint writes a snapshot of the current graph plus a manifest
// pointing at it, then drops WAL segments the snapshot covers. Unless
// force is set, it is a no-op when no updates landed since the last
// checkpoint. Crash-safety: the snapshot and the manifest are each
// written to a temp file, fsynced, and renamed into place — a crash
// anywhere in this sequence leaves the previous (snapshot, LastLSN)
// pair valid, and stale temp/snapshot files are swept by later runs.
func (d *durability) checkpoint(force bool) (CheckpointInfo, error) {
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	if reason, ok := d.e.Degraded(); ok {
		// A degraded engine stopped applying updates at its first WAL
		// failure, but the log's in-memory LSN may have advanced past a
		// torn or unsynced frame; a snapshot stamped with that LSN would
		// claim coverage the graph does not have. Refuse.
		return CheckpointInfo{}, fmt.Errorf("ids: refusing checkpoint: engine degraded: %s", reason)
	}
	if !force && d.last.Snapshot != "" && d.log.LastLSN() == d.last.LastLSN {
		info := d.last
		info.Skipped = true
		info.Seconds = 0
		return info, nil
	}
	start := time.Now()
	reg := d.e.Metrics()
	lg := d.e.Logger()
	lg.Debug("checkpoint started", "forced", force)
	info, err := d.writeCheckpoint()
	if err != nil {
		reg.Counter("ids_checkpoint_errors_total").Inc()
		lg.Error("checkpoint failed", "err", err)
		return CheckpointInfo{}, err
	}
	info.Seconds = time.Since(start).Seconds()
	// One LSN per update: the delta tells how many pending update
	// notifications this checkpoint absorbed (updates racing the
	// manifest write keep their count for the next round).
	d.pending.Add(-int64(info.LastLSN - d.lastLSN.Swap(info.LastLSN)))
	d.last = info
	reg.Counter("ids_checkpoints_total").Inc()
	reg.Histogram("ids_checkpoint_duration_seconds", nil).Observe(info.Seconds)
	reg.Gauge("ids_checkpoint_last_lsn").Set(float64(info.LastLSN))
	lg.Info("checkpoint completed",
		"snapshot", info.Snapshot, "last_lsn", info.LastLSN, "seconds", info.Seconds)
	return info, nil
}

func (d *durability) writeCheckpoint() (CheckpointInfo, error) {
	dir := d.log.Dir()
	fsys := d.cfg.FS
	tmp, err := fsys.CreateTemp(dir, "snap-*.tmp")
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename

	// The engine read lock makes (graph contents, vector stores,
	// LastLSN) a consistent triple: appends and vector upserts happen
	// only under the writer lock.
	var vtmp fault.File
	d.e.mu.RLock()
	lsn := d.log.LastLSN()
	err = d.e.Graph.Save(tmp)
	hasVecs := err == nil && len(d.e.vectors) > 0
	if hasVecs {
		if vtmp, err = fsys.CreateTemp(dir, "vecs-*.tmp"); err == nil {
			defer fsys.Remove(vtmp.Name())
			err = vecstore.SaveSet(vtmp, d.e.vectors)
		}
	}
	d.e.mu.RUnlock()
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if vtmp != nil {
		if err == nil {
			err = vtmp.Sync()
		}
		if cerr := vtmp.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return CheckpointInfo{}, err
	}
	name := snapName(lsn)
	if err := fsys.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return CheckpointInfo{}, err
	}
	vname := ""
	if vtmp != nil {
		vname = vecsName(lsn)
		if err := fsys.Rename(vtmp.Name(), filepath.Join(dir, vname)); err != nil {
			return CheckpointInfo{}, err
		}
	}
	if err := fsys.SyncDir(dir); err != nil {
		return CheckpointInfo{}, err
	}
	if err := wal.WriteManifestFS(fsys, dir, wal.Manifest{Snapshot: name, LastLSN: lsn, Vectors: vname}); err != nil {
		return CheckpointInfo{}, err
	}
	// Only after the manifest durably points at the new snapshot may
	// covered segments and the previous snapshot go.
	if err := d.log.TruncateBefore(lsn + 1); err != nil {
		return CheckpointInfo{}, err
	}
	for _, pat := range []string{"snap-*.idsnap", "vecs-*.idsvecs"} {
		stale, _ := fsys.Glob(filepath.Join(dir, pat))
		for _, s := range stale {
			if b := filepath.Base(s); b != name && b != vname {
				fsys.Remove(s)
			}
		}
	}
	return CheckpointInfo{Snapshot: name, LastLSN: lsn}, nil
}
