package ids

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/vecstore"
	"ids/internal/wal"
)

// LaunchConfig describes one IDS instance to bring up.
type LaunchConfig struct {
	// NTriplesPath optionally bulk-loads a file at launch.
	NTriplesPath string
	// Graph supplies a pre-built graph instead (takes precedence).
	Graph *kg.Graph
	Topo  mpp.Topology
	// Addr is the listen address; ":0" picks a free port.
	Addr string
	// ServerConfig tunes the instance's HTTP server: admission, the
	// tail verdict's budgets, tail sampling and the insights sketch.
	// Its Logger receives the whole instance's structured log stream
	// (engine, WAL, checkpointer, HTTP layer); nil discards.
	ServerConfig
	// Durability, when non-nil, makes the instance durable: updates
	// are write-ahead logged under Durability.Dir, a background
	// checkpointer folds the log into snapshots, and launch recovers
	// the last durable state (which then takes precedence over Graph
	// and NTriplesPath — those only seed a fresh directory).
	Durability *DurabilityConfig
	// OnListen, when set, is called with the bound address as soon as
	// the listener accepts connections — before recovery runs — so
	// callers can observe the not-yet-ready window (/readyz is 503).
	OnListen func(addr string)
}

// Agent is the per-node helper process of the deployment model: it
// relays launch/teardown, carries per-node logs, and imports user
// code. One Agent runs per simulated compute node.
type Agent struct {
	Node int

	mu   sync.Mutex
	logs []string
}

// Logf appends to the agent's log.
func (a *Agent) Logf(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.logs = append(a.logs, fmt.Sprintf("[node %d] %s", a.Node, fmt.Sprintf(format, args...)))
}

// Logs returns a copy of the agent's log lines.
func (a *Agent) Logs() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string{}, a.logs...)
}

// Instance is a launched IDS deployment: engine, HTTP endpoint and
// per-node agents.
type Instance struct {
	Engine *Engine
	Server *Server
	Agents []*Agent
	Addr   string
	// Health is the instance lifecycle state backing GET /readyz.
	Health *obs.Health
	// Recovery reports what startup recovery did (nil when the
	// instance runs without durability).
	Recovery *RecoveryStats

	dur      *durability
	httpSrv  *http.Server
	handler  atomic.Pointer[http.Handler]
	doneOnce sync.Once
}

// bootstrapHandler serves the pre-ready window: the listener is bound
// before recovery so probes get answers immediately — /healthz is live,
// /readyz reports the lifecycle state with 503, and everything else is
// asked to retry.
func bootstrapHandler(h *obs.Health) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, h.State().String())
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
		http.Error(w, "ids: not ready: "+h.State().String(), http.StatusServiceUnavailable)
	})
	return mux
}

// Checkpoint forces a checkpoint on a durable instance.
func (inst *Instance) Checkpoint() (CheckpointInfo, error) {
	if inst.dur == nil {
		return CheckpointInfo{}, fmt.Errorf("ids: instance is not durable")
	}
	return inst.dur.Checkpoint()
}

// Launcher brings IDS instances up and tears them down (the paper's
// Datastore Launcher).
type Launcher struct{}

// Launch builds the engine, starts the HTTP endpoint, and spawns one
// agent per node. The listener is bound and answering probes BEFORE
// recovery runs — /healthz is live and /readyz reports 503 with the
// lifecycle state (starting → recovering → ready) — so orchestrators
// can distinguish "down" from "replaying the WAL". It returns once the
// instance is ready.
func (Launcher) Launch(cfg LaunchConfig) (*Instance, error) {
	if err := cfg.Topo.Validate(); err != nil {
		return nil, err
	}
	lg := obs.OrNop(cfg.Logger)
	health := obs.NewHealth()

	addr := cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	inst := &Instance{Addr: ln.Addr().String(), Health: health}
	boot := bootstrapHandler(health)
	inst.handler.Store(&boot)
	inst.httpSrv = &http.Server{
		// Indirect dispatch: the bootstrap handler is swapped for the
		// real mux once recovery finishes, without a listener bounce.
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*inst.handler.Load()).ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	go func() {
		if err := inst.httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			lg.Error("endpoint stopped", "err", err)
		}
	}()
	lg.Info("endpoint listening", "addr", inst.Addr)
	if cfg.OnListen != nil {
		cfg.OnListen(inst.Addr)
	}

	var (
		log *wal.Log
		man *wal.Manifest
		rec RecoveryStats
	)
	fail := func(err error) (*Instance, error) {
		_ = inst.httpSrv.Close()
		if log != nil {
			log.Close()
		}
		return nil, err
	}
	g := cfg.Graph
	if cfg.Durability != nil {
		health.Set(obs.StateRecovering)
		dcfg := cfg.Durability.withDefaults()
		sg, l, m, err := openDurable(dcfg, cfg.Topo.Size(), &rec, lg)
		if err != nil {
			return fail(err)
		}
		log, man = l, m
		if sg != nil {
			// The recovered snapshot wins: Graph/NTriplesPath only seed
			// a fresh data directory.
			g = sg
		}
	}
	if g == nil {
		g = kg.New(cfg.Topo.Size())
		if cfg.NTriplesPath != "" {
			f, err := os.Open(cfg.NTriplesPath)
			if err != nil {
				return fail(err)
			}
			_, err = g.LoadNTriples(f)
			cerr := f.Close()
			if err != nil {
				return fail(err)
			}
			if cerr != nil {
				return fail(cerr)
			}
		}
		g.Seal()
	}
	e, err := NewEngine(g, cfg.Topo)
	if err != nil {
		return fail(err)
	}
	e.SetLogger(lg)
	var dur *durability
	if log != nil {
		// Restore the vector stores the manifest's checkpoint captured
		// BEFORE replaying the log: replayed vector upserts mutate
		// these stores exactly as the live upserts did.
		if man != nil && man.Vectors != "" {
			dcfg := cfg.Durability.withDefaults()
			f, err := dcfg.FS.Open(filepath.Join(dcfg.Dir, man.Vectors))
			if err != nil {
				return fail(fmt.Errorf("ids: manifest vectors: %w", err))
			}
			stores, err := vecstore.LoadSet(f)
			f.Close()
			if err != nil {
				return fail(fmt.Errorf("ids: manifest vectors %s: %w", man.Vectors, err))
			}
			for name, vs := range stores {
				if err := e.AttachVectors(name, vs); err != nil {
					return fail(err)
				}
			}
		}
		// Replay the log tail through the normal update path, then
		// attach the log so new updates append to it.
		from := uint64(0)
		if man != nil {
			from = man.LastLSN
		}
		n, err := e.replayWAL(log, from)
		if err != nil {
			return fail(err)
		}
		rec.ReplayedRecords = n
		rec.LastLSN = log.LastLSN()
		e.AttachWAL(log)
		reg := e.Metrics()
		reg.Gauge("ids_recovery_segments_scanned").Set(float64(rec.SegmentsScanned))
		reg.Gauge("ids_recovery_records_replayed").Set(float64(rec.ReplayedRecords))
		reg.Gauge("ids_recovery_torn_tail_truncations").Set(float64(rec.TornTailTruncations))
		reg.Gauge("ids_recovery_last_lsn").Set(float64(rec.LastLSN))

		dur = newDurability(e, log, cfg.Durability.withDefaults())
		dur.lastLSN.Store(from)
		if man == nil {
			// First launch: checkpoint the seed graph so the manifest
			// invariant (always a consistent snapshot+LSN pair) holds
			// before the endpoint accepts updates.
			if _, err := dur.checkpoint(true); err != nil {
				return fail(err)
			}
		}
		e.setWALNotify(dur.noteUpdate)
	}
	// Export build metadata before NewServerConfig's in-memory fallback:
	// the first SetBuildInfo wins, so a durable instance reports its real
	// fsync policy.
	if cfg.Durability != nil {
		e.SetBuildInfo(cfg.Durability.withDefaults().Fsync.String())
	}
	scfg := cfg.ServerConfig
	scfg.Logger = lg
	srv := NewServerConfig(e, scfg)
	srv.SetHealth(health)
	if dur != nil {
		srv.SetCheckpointer(dur.Checkpoint)
	}
	inst.Engine = e
	inst.Server = srv
	if dur != nil {
		dur.start()
		inst.dur = dur
		inst.Recovery = &rec
	}
	for n := 0; n < cfg.Topo.Nodes; n++ {
		a := &Agent{Node: n}
		a.Logf("agent started; %d ranks on this node", cfg.Topo.RanksPerNode)
		inst.Agents = append(inst.Agents, a)
	}
	real := srv.Handler()
	inst.handler.Store(&real)
	health.Set(obs.StateReady)
	lg.Info("instance ready",
		"addr", inst.Addr, "triples", g.Len(),
		"nodes", cfg.Topo.Nodes, "ranks", cfg.Topo.Size(),
		"durable", cfg.Durability != nil)
	return inst, nil
}

// Client returns a client bound to this instance's endpoint.
func (inst *Instance) Client() *Client {
	return NewClient("http://" + inst.Addr)
}

// Teardown stops the endpoint, stops the checkpointer (taking a final
// checkpoint so a clean shutdown restarts from the snapshot alone),
// closes the WAL, and closes the agents.
func (inst *Instance) Teardown() error {
	var err error
	inst.doneOnce.Do(func() {
		if inst.Health != nil {
			inst.Health.Set(obs.StateDraining)
		}
		err = inst.httpSrv.Close()
		if inst.dur != nil {
			if derr := inst.dur.close(); err == nil {
				err = derr
			}
		}
		for _, a := range inst.Agents {
			a.Logf("teardown")
		}
	})
	return err
}

// DumpLogs writes every agent's log to w (the Datastore Client's
// "fetch logs" operation).
func (inst *Instance) DumpLogs(w io.Writer) {
	for _, a := range inst.Agents {
		for _, line := range a.Logs() {
			fmt.Fprintln(w, line)
		}
	}
}
