package kg_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ids/internal/dict"
	"ids/internal/ids"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/synth"
	"ids/internal/triple"
)

// The engine joins SIMILAR hits through the owning rank's own index
// (exec.Probe), which is only a join while every triple sits
// on the shard of its subject. These tests pin that rule on every way a
// graph comes to be: generated, updated, restored into another shard
// count, and replayed from the write-ahead log.

// checkPlacement fails for each triple on shard i whose subject routes
// elsewhere, and returns how many triples it checked.
func checkPlacement(t *testing.T, g *kg.Graph) int {
	t.Helper()
	n := 0
	for i := 0; i < g.NumShards(); i++ {
		g.Shard(i).Match(triple.Pattern{}, func(tr triple.Triple) bool {
			n++
			if got := g.ShardOf(tr.S); got != i {
				t.Errorf("triple %v on shard %d, its subject routes to %d", tr, i, got)
				return false
			}
			return true
		})
	}
	return n
}

func iri(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: s} }
func lit(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }

func ncnpr(t *testing.T, shards int) *kg.Graph {
	t.Helper()
	ds, err := synth.BuildNCNPR(synth.NCNPRConfig{
		Seed: 3, Shards: shards, SeqLen: 60,
		Tiers:              []synth.SimTier{{Lo: 0.45, Hi: 0.75, Proteins: 3, CompoundsPerProtein: 2}},
		BackgroundProteins: 20,
		UnreviewedProteins: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Graph
}

func TestPlacementAfterBuild(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		g := ncnpr(t, shards)
		if n := checkPlacement(t, g); n != g.Len() || n == 0 {
			t.Fatalf("%d shards: checked %d of %d triples", shards, n, g.Len())
		}
	}
}

func TestPlacementAfterUpdates(t *testing.T) {
	g := ncnpr(t, 3)
	for i := 0; i < 50; i++ {
		s := iri(fmt.Sprintf("http://x/u%d", i%17))
		g.Insert(s, iri("http://x/p"), lit(fmt.Sprint(i)))
		if i%3 == 0 {
			g.Delete(s, iri("http://x/p"), lit(fmt.Sprint(i-3)))
		}
	}
	checkPlacement(t, g)
}

func TestPlacementAfterSnapshotReshard(t *testing.T) {
	g := ncnpr(t, 3)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		g2, err := kg.LoadSnapshot(bytes.NewReader(buf.Bytes()), shards)
		if err != nil {
			t.Fatal(err)
		}
		if g2.NumShards() != shards || checkPlacement(t, g2) != g.Len() {
			t.Fatalf("restored %d shards, %d triples; want %d, %d", g2.NumShards(), g2.Len(), shards, g.Len())
		}
	}
}

// TestPlacementAfterWALReplay relaunches a crashed durable instance
// at another rank count: the graph it replays from the log must still
// place every triple with its subject.
func TestPlacementAfterWALReplay(t *testing.T) {
	dir := t.TempDir()
	durable := func(dir string) *ids.DurabilityConfig {
		return &ids.DurabilityConfig{Dir: dir, CheckpointInterval: -1, CheckpointEvery: -1}
	}
	inst, err := ids.Launcher{}.Launch(ids.LaunchConfig{
		Topo: mpp.Topology{Nodes: 1, RanksPerNode: 2}, Durability: durable(dir)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		u := fmt.Sprintf(`INSERT DATA { <http://x/s%d> <http://x/p> "v%d" . <http://x/s%d> <http://x/q> <http://x/s%d> . }`,
			i, i, i, i+1)
		if i%4 == 3 {
			u = fmt.Sprintf(`DELETE DATA { <http://x/s%d> <http://x/p> "v%d" . }`, i-1, i-1)
		}
		if _, err := inst.Engine.Update(u); err != nil {
			t.Fatal(err)
		}
	}
	// The directory as it stands is what a crash leaves: no checkpoint
	// has folded the log.
	crashed := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crashed, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := inst.Engine.Graph.Len()
	if err := inst.Teardown(); err != nil {
		t.Fatal(err)
	}
	inst2, err := ids.Launcher{}.Launch(ids.LaunchConfig{
		Topo: mpp.Topology{Nodes: 1, RanksPerNode: 3}, Durability: durable(crashed)})
	if err != nil {
		t.Fatal(err)
	}
	defer inst2.Teardown()
	if inst2.Recovery == nil || inst2.Recovery.ReplayedRecords != 12 {
		t.Fatalf("recovery = %+v, want 12 replayed records", inst2.Recovery)
	}
	g := inst2.Engine.Graph
	if g.NumShards() != 3 || checkPlacement(t, g) != want {
		t.Fatalf("replayed %d shards, %d triples; want 3, %d", g.NumShards(), g.Len(), want)
	}
}
