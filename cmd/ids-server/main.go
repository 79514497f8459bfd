// ids-server launches one IDS instance: it builds (or loads) the
// knowledge graph, opens the HTTP query endpoint, and blocks. This is
// the Datastore Launcher + backend of the deployment model.
//
// Usage:
//
//	ids-server [-addr host:port] [-nodes N] [-rpn R]
//	           [-data graph.nt | -synth-ncnpr] [-background N]
//	           [-data-dir dir] [-fsync always|interval|none]
//	           [-checkpoint-interval d] [-checkpoint-updates n]
//
// With -synth-ncnpr the server hosts the generated NCNPR
// drug-repurposing graph with the workflow UDFs (ncnpr.sw,
// ncnpr.pic50, ncnpr.dtba) pre-registered.
//
// With -data-dir the instance is durable: updates are write-ahead
// logged before they apply, a background checkpointer folds the log
// into snapshots, and a restart recovers the last durable state (which
// then takes precedence over -data / -snapshot / -synth-ncnpr).
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"

	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/obs"
	"ids/internal/synth"
	"ids/internal/wal"
	"ids/internal/workflow"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7474", "listen address")
	nodes := flag.Int("nodes", 2, "simulated compute nodes")
	rpn := flag.Int("rpn", 4, "ranks per node")
	dataPath := flag.String("data", "", "N-Triples file to load")
	snapPath := flag.String("snapshot", "", "binary snapshot to restore (see ids-cli snapshot)")
	synthNCNPR := flag.Bool("synth-ncnpr", false, "host the synthetic NCNPR graph with workflow UDFs")
	background := flag.Int("background", 2000, "background proteins for -synth-ncnpr")
	maxInflight := flag.Int("max-inflight", 0, "concurrent query limit (0 = GOMAXPROCS-derived)")
	maxQueue := flag.Int("max-queue", 0, "admission queue length (0 = 4x max-inflight, -1 = no queue)")
	queueTimeout := flag.Duration("queue-timeout", 0, "max admission queue wait before 429 (0 = 2s default)")
	dataDir := flag.String("data-dir", "", "durable data directory (WAL + checkpoints); empty = in-memory only")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always | interval | none")
	ckptInterval := flag.Duration("checkpoint-interval", 0, "background checkpoint period (0 = 30s default, <0 disables)")
	ckptUpdates := flag.Int("checkpoint-updates", 0, "checkpoint after this many updates (0 = 256 default, <0 disables)")
	logFormat := flag.String("log-format", "text", "log output format: text | json")
	logLevel := flag.String("log-level", "info", "log level: debug | info | warn | error")
	slowQuery := flag.Duration("slow-query", 0, "latency budget: a query at or above this wall time (writer-lock wait included) gets a slow verdict — pinned, listed by /traces?slow=1, WARN-logged and flight-recorded (0 disables)")
	slowQueryAlloc := flag.Int64("slow-query-alloc", 0, "allocation budget: a query allocating at least this many heap bytes gets an alloc verdict — pinned, WARN-logged and flight-recorded (0 disables)")
	tailSampleN := flag.Int("tail-sample-n", 0, "tail-sample 1-in-N queries per fingerprint (0 = default 64, <0 disables)")
	insightsTopK := flag.Int("insights-top-k", 0, "workload fingerprints tracked with full statistics (0 = default 64)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		log.Fatalf("-log-level: %v", err)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		log.Fatalf("-log-format: %v", err)
	}

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank
			// import; a separate listener keeps them off the query port.
			logger.Info("pprof listening", "addr", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Error("pprof server stopped", "err", err)
			}
		}()
	}

	topo := mpp.Topology{Nodes: *nodes, RanksPerNode: *rpn}
	cfg := ids.LaunchConfig{
		Topo: topo, Addr: *addr, NTriplesPath: *dataPath,
		ServerConfig: ids.ServerConfig{
			Admission: ids.AdmissionConfig{
				MaxInFlight:  *maxInflight,
				MaxQueue:     *maxQueue,
				QueueTimeout: *queueTimeout,
			},
			Logger:              logger,
			SlowQuerySeconds:    slowQuery.Seconds(),
			SlowQueryAllocBytes: *slowQueryAlloc,
			TailSampleN:         *tailSampleN,
			InsightsTopK:        *insightsTopK,
		},
	}
	if *dataDir != "" {
		pol, err := wal.ParseFsyncPolicy(*fsync)
		if err != nil {
			log.Fatalf("-fsync: %v", err)
		}
		cfg.Durability = &ids.DurabilityConfig{
			Dir:                *dataDir,
			Fsync:              pol,
			CheckpointInterval: *ckptInterval,
			CheckpointEvery:    *ckptUpdates,
		}
	}

	if *snapPath != "" {
		f, err := os.Open(*snapPath)
		if err != nil {
			log.Fatalf("opening snapshot: %v", err)
		}
		g, err := kg.LoadSnapshot(f, topo.Size())
		f.Close()
		if err != nil {
			log.Fatalf("restoring snapshot: %v", err)
		}
		cfg.Graph = g
		fmt.Printf("restored snapshot %s: %d triples\n", *snapPath, g.Len())
	}

	var ds *synth.Dataset
	if *synthNCNPR {
		scfg := synth.DefaultNCNPR(topo.Size())
		scfg.BackgroundProteins = *background
		scfg.SkipBackgroundSim = *background > 2000
		var err error
		ds, err = synth.BuildNCNPR(scfg)
		if err != nil {
			log.Fatalf("building NCNPR graph: %v", err)
		}
		cfg.Graph = ds.Graph
	}

	inst, err := ids.Launcher{}.Launch(cfg)
	if err != nil {
		log.Fatalf("launch: %v", err)
	}
	defer inst.Teardown()

	if ds != nil {
		if _, err := workflow.New(inst.Engine, ds, workflow.DefaultConfig(), nil); err != nil {
			log.Fatalf("registering workflow UDFs: %v", err)
		}
		fmt.Printf("NCNPR graph: %d triples, target %s\n", ds.Graph.Len(), synth.TargetIRI)
	}
	if r := inst.Recovery; r != nil {
		fmt.Printf("durable: recovered to lsn %d (snapshot %q covers lsn %d; %d records replayed, %d torn tails repaired)\n",
			r.LastLSN, r.Snapshot, r.SnapshotLSN, r.ReplayedRecords, r.TornTailTruncations)
	}
	fmt.Printf("IDS endpoint listening on http://%s (%d nodes x %d ranks, %d triples)\n",
		inst.Addr, topo.Nodes, topo.RanksPerNode, inst.Engine.Graph.Len())
	fmt.Println("POST /query, POST /update, POST /module, POST /checkpoint, POST /vector/upsert, POST /vector/search, GET /snapshot, GET /profile, GET /metrics, GET /traces, GET /insights, GET /healthz, GET /readyz")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nteardown")
	inst.DumpLogs(os.Stdout)
}
