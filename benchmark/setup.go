package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"ids/internal/dict"
	"ids/internal/ids"
	"ids/internal/mpp"
	"ids/internal/synth"
	"ids/internal/triple"
	"ids/internal/vecstore"
	"ids/internal/vecstore/hnsw"
	"ids/internal/wal"
	"ids/internal/workflow"
)

// The fixed set-up every workload shares. The topology is pinned so
// numbers compare across hosts with different core counts.
var benchTopo = mpp.Topology{Nodes: 2, RanksPerNode: 2}

const (
	vecStoreName = "emb"
	vecCount     = 8192
	vecDim       = 32
	vecClusters  = 64
	similarK     = 10
	benchNS      = "http://ids.example.org/bench/"
	predNote     = benchNS + "note"
)

func ncnprConfig(datasetSeed int64) synth.NCNPRConfig {
	return synth.NCNPRConfig{
		Seed:               datasetSeed,
		Shards:             benchTopo.Size(),
		SeqLen:             240,
		Tiers:              synth.DefaultTable2Tiers(),
		BackgroundProteins: 30000,
		UnreviewedProteins: 5000,
		SkipBackgroundSim:  true,
	}
}

// system is one launched instance plus the handles the probes need.
type system struct {
	ds   *synth.Dataset
	vecs *vecstore.Store
	inst *ids.Instance
	// vecKeys are the protein IRIs indexed in vecs.
	vecKeys []string
	// dir is the durable instance's data directory ("" in memory).
	dir string
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// buildVectors fills a store with n seeded mixture-of-Gaussians vectors
// keyed by every (len(proteins)/n)-th protein IRI and indexes it.
func buildVectors(seed int64, proteins []string, n int) (*vecstore.Store, []string, error) {
	vs, err := vecstore.New(vecDim, vecstore.L2)
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	centers := make([][]float32, vecClusters)
	for c := range centers {
		centers[c] = make([]float32, vecDim)
		for j := range centers[c] {
			centers[c][j] = float32(rng.NormFloat64())
		}
	}
	stride := len(proteins) / n
	keys := make([]string, n)
	v := make([]float32, vecDim)
	for i := 0; i < n; i++ {
		keys[i] = proteins[i*stride]
		ctr := centers[rng.Intn(vecClusters)]
		for j := range v {
			v[j] = ctr[j] + float32(rng.NormFloat64())
		}
		if err := vs.Add(keys[i], v); err != nil {
			return nil, nil, err
		}
	}
	return vs, keys, vs.EnableHNSW(hnsw.Config{M: 16, EfConstruction: 200, Seed: 1})
}

// setUp builds the dataset and the vector index, launches an instance
// with the default LaunchConfig (durable under dir when dir is set) and
// returns once /readyz answers 200. Its wall time is setup_s.
func setUp(graph synth.NCNPRConfig, vecSeed int64, vectors int, dir string) (*system, error) {
	ds, err := synth.BuildNCNPR(graph)
	if err != nil {
		return nil, err
	}
	vs, keys, err := buildVectors(vecSeed, sortedKeys(ds.ProteinSim), vectors)
	if err != nil {
		return nil, err
	}
	sys := &system{ds: ds, vecs: vs, vecKeys: keys, dir: dir}
	if err := sys.launch(); err != nil {
		return nil, err
	}
	if err := sys.inst.Engine.AttachVectors(vecStoreName, vs); err != nil {
		sys.inst.Teardown()
		return nil, err
	}
	return sys, sys.waitReady()
}

// launch starts an instance over the system's graph (or, for a durable
// directory that already holds a checkpoint, over the recovered state)
// and registers the ncnpr.* UDFs on its engine.
func (s *system) launch() error {
	cfg := ids.LaunchConfig{Graph: s.ds.Graph, Topo: benchTopo}
	if s.dir != "" {
		cfg.Durability = &ids.DurabilityConfig{Dir: s.dir, Fsync: wal.FsyncAlways}
	}
	inst, err := ids.Launcher{}.Launch(cfg)
	if err != nil {
		return err
	}
	if _, err := workflow.New(inst.Engine, s.ds, workflow.DefaultConfig(), nil); err != nil {
		inst.Teardown()
		return err
	}
	s.inst = inst
	return nil
}

func (s *system) waitReady() error {
	c := newClient(s.inst.Addr)
	defer c.HTTP.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if ok, _ := c.Ready(); ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("instance at %s not ready after 30s", s.inst.Addr)
		}
		time.Sleep(time.Millisecond)
	}
}

// relaunch tears the durable instance down and launches it again from
// the same directory, returning how long the relaunch took until ready.
func (s *system) relaunch() (time.Duration, error) {
	if err := s.inst.Teardown(); err != nil {
		return 0, fmt.Errorf("teardown: %w", err)
	}
	start := time.Now()
	if err := s.launch(); err != nil {
		return 0, fmt.Errorf("relaunch: %w", err)
	}
	if err := s.waitReady(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// close stops the instance and removes its data directory.
func (s *system) close() {
	s.inst.Teardown()
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// catalog is the ground truth the op generator and the answer checker
// share, read off the generated dataset without going through the
// engine under test.
type catalog struct {
	proteins   []string // every protein IRI, sorted
	tier       []string // proteins that have compounds, sorted
	unreviewed []string
	vecKeys    []string // proteins indexed in the vector store
	reviewed   map[string]bool
	seq        map[string]string
	mnemonic   map[string]string
	compounds  map[string][]string
	smiles     map[string]string
	ic50       map[string]string // literal text, as stored
	sim        map[string]float64
	// screen maps a threshold (as the op key spells it) to the inner
	// query's exact answer; nil until buildScreenTruth.
	screen map[string][][]string
}

func newCatalog(ds *synth.Dataset, vecKeys []string) *catalog {
	c := &catalog{
		proteins:  sortedKeys(ds.ProteinSim),
		tier:      sortedKeys(ds.CompoundsOf),
		vecKeys:   vecKeys,
		reviewed:  map[string]bool{},
		seq:       map[string]string{},
		mnemonic:  map[string]string{},
		compounds: ds.CompoundsOf,
		smiles:    ds.SMILESOf,
		ic50:      map[string]string{},
		sim:       ds.ProteinSim,
	}
	g := ds.Graph
	objects := func(pred string, fn func(subject, object string)) {
		pid, ok := g.Dict.LookupIRI(pred)
		if !ok {
			return
		}
		for i := 0; i < g.NumShards(); i++ {
			g.Shard(i).Match(triple.Pattern{P: pid}, func(t triple.Triple) bool {
				fn(g.Dict.MustDecode(t.S).Value, g.Dict.MustDecode(t.O).Value)
				return true
			})
		}
	}
	objects(synth.PredSequence, func(s, o string) { c.seq[s] = o })
	objects(synth.PredMnemonic, func(s, o string) { c.mnemonic[s] = o })
	objects(synth.PredIC50, func(s, o string) { c.ic50[s] = o })
	objects(synth.PredReviewed, func(s, o string) {
		c.reviewed[s] = o == "true"
		if o != "true" {
			c.unreviewed = append(c.unreviewed, s)
		}
	})
	sort.Strings(c.unreviewed)
	return c
}

func iriText(s string) string { return dict.Term{Kind: dict.IRI, Value: s}.String() }
func litText(s string) string { return dict.Term{Kind: dict.Literal, Value: s}.String() }
