package experiments

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"ids/internal/chem"
	"ids/internal/dock"
	"ids/internal/fold"
	"ids/internal/molgen"
	"ids/internal/mpp"
	"ids/internal/synth"
)

// Every stochastic kernel must draw from a locally seeded rand.New —
// never the global rand — so experiments are reproducible run-to-run
// and recovery replays (internal/ids durability) reproduce the exact
// pre-crash state. These tests pin that property per kernel: same
// seed, two runs, bit-identical output.

func TestSynthDeterminism(t *testing.T) {
	build := func() *bytes.Buffer {
		cfg := synth.DefaultNCNPR(4)
		cfg.BackgroundProteins = 20
		ds, err := synth.BuildNCNPR(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ds.Graph.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("NCNPR graphs differ between same-seed builds (%d vs %d bytes)", a.Len(), b.Len())
	}
}

func TestMolgenDeterminism(t *testing.T) {
	a := molgen.New(7).Generate(100)
	b := molgen.New(7).Generate(100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("molgen output differs between same-seed generators")
	}
	c := molgen.New(8).Generate(100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("molgen ignores its seed")
	}
}

func TestDockDeterminism(t *testing.T) {
	st, err := fold.Predict("MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ")
	if err != nil {
		t.Fatal(err)
	}
	rec := dock.ReceptorFromStructure(st)
	m, err := chem.ParseSMILES("CC(=O)Oc1ccccc1C(=O)O")
	if err != nil {
		t.Fatal(err)
	}
	run := func() dock.Result {
		lig, err := dock.Embed(m, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dock.Dock(rec, lig, dock.Params{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("docking differs between same-seed runs:\n a %+v\n b %+v", a, b)
	}
}

func TestMPPRankRNGDeterminism(t *testing.T) {
	topo := mpp.Topology{Nodes: 2, RanksPerNode: 2}
	draw := func(seed int64) [][]float64 {
		out := make([][]float64, topo.Size())
		var mu sync.Mutex
		_, err := mpp.Run(topo, mpp.DefaultNet(), seed, func(r *mpp.Rank) error {
			vals := make([]float64, 8)
			for i := range vals {
				vals[i] = r.RNG().Float64()
			}
			mu.Lock()
			out[r.ID()] = vals
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := draw(1), draw(1)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("per-rank RNG streams differ between same-seed worlds")
	}
	// Distinct ranks get distinct streams; distinct seeds change them.
	if reflect.DeepEqual(a[0], a[1]) {
		t.Fatal("ranks 0 and 1 share an RNG stream")
	}
	if reflect.DeepEqual(a, draw(2)) {
		t.Fatal("world seed ignored")
	}
}
