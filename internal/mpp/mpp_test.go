package mpp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func testTopo(nodes, rpn int) Topology { return Topology{Nodes: nodes, RanksPerNode: rpn} }

func TestTopologySize(t *testing.T) {
	if got := testTopo(4, 8).Size(); got != 32 {
		t.Fatalf("Size = %d, want 32", got)
	}
	if err := testTopo(0, 8).Validate(); err == nil {
		t.Fatal("Validate accepted zero nodes")
	}
	if err := testTopo(2, -1).Validate(); err == nil {
		t.Fatal("Validate accepted negative ranks per node")
	}
}

func TestRunBasicIdentity(t *testing.T) {
	var visited int64
	rep, err := Run(testTopo(2, 4), DefaultNet(), 1, func(r *Rank) error {
		atomic.AddInt64(&visited, 1)
		if r.ID() < 0 || r.ID() >= 8 {
			return fmt.Errorf("bad id %d", r.ID())
		}
		if r.Size() != 8 {
			return fmt.Errorf("bad size %d", r.Size())
		}
		wantNode := r.ID() / 4
		if r.Node() != wantNode {
			return fmt.Errorf("rank %d: node %d, want %d", r.ID(), r.Node(), wantNode)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 8 {
		t.Fatalf("visited %d ranks, want 8", visited)
	}
	if rep.Makespan < 0 {
		t.Fatalf("negative makespan %f", rep.Makespan)
	}
}

func TestChargeAndPhases(t *testing.T) {
	rep, err := Run(testTopo(1, 4), NetModel{}, 1, func(r *Rank) error {
		r.SetPhase("scan")
		r.Charge(float64(r.ID()+1) * 1.0) // ranks charge 1..4s
		r.SetPhase("join")
		r.Charge(0.5)
		r.Charge(-3) // ignored
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Makespan; math.Abs(got-4.5) > 1e-9 {
		t.Fatalf("makespan = %f, want 4.5", got)
	}
	if got := rep.PhaseMax("scan"); math.Abs(got-4.0) > 1e-9 {
		t.Fatalf("scan max = %f, want 4", got)
	}
	if got := rep.Phases["join"]; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("join max = %f, want 0.5", got)
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	net := NetModel{Alpha: 1e-3} // 8 ranks -> 3 hops -> 3ms barrier
	_, err := Run(testTopo(2, 4), net, 1, func(r *Rank) error {
		r.Charge(float64(r.ID()) * 0.1)
		if err := r.Barrier(); err != nil {
			return err
		}
		want := 0.7 + 3e-3 // max charge + hop cost
		if math.Abs(r.Now()-want) > 1e-9 {
			return fmt.Errorf("rank %d: vt=%f want %f", r.ID(), r.Now(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGather(t *testing.T) {
	_, err := Run(testTopo(1, 8), DefaultNet(), 1, func(r *Rank) error {
		got, err := AllGather(r, r.ID()*10)
		if err != nil {
			return err
		}
		for i, v := range got {
			if v != i*10 {
				return fmt.Errorf("got[%d]=%d", i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherRepeatedRounds(t *testing.T) {
	// Exercises slot reuse across generations.
	_, err := Run(testTopo(1, 5), DefaultNet(), 1, func(r *Rank) error {
		for round := 0; round < 50; round++ {
			got, err := AllGather(r, r.ID()+round*100)
			if err != nil {
				return err
			}
			for i, v := range got {
				if v != i+round*100 {
					return fmt.Errorf("round %d: got[%d]=%d", round, i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllGatherSlice(t *testing.T) {
	_, err := Run(testTopo(1, 4), DefaultNet(), 1, func(r *Rank) error {
		mine := make([]string, r.ID())
		for i := range mine {
			mine[i] = fmt.Sprintf("r%d-%d", r.ID(), i)
		}
		got, err := AllGatherSlice(r, mine)
		if err != nil {
			return err
		}
		for i, s := range got {
			if len(s) != i {
				return fmt.Errorf("len(got[%d])=%d want %d", i, len(s), i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAll(t *testing.T) {
	_, err := Run(testTopo(2, 3), DefaultNet(), 1, func(r *Rank) error {
		send := make([][]int, r.Size())
		for dst := range send {
			send[dst] = []int{r.ID()*100 + dst}
		}
		recv, err := AllToAll(r, send)
		if err != nil {
			return err
		}
		for src, msg := range recv {
			if len(msg) != 1 || msg[0] != src*100+r.ID() {
				return fmt.Errorf("rank %d: recv[%d]=%v", r.ID(), src, msg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllToAllWrongLen(t *testing.T) {
	_, err := Run(testTopo(1, 2), DefaultNet(), 1, func(r *Rank) error {
		_, err := AllToAll(r, make([][]int, 1))
		return err
	})
	if err == nil {
		t.Fatal("expected error for wrong send length")
	}
}

func TestErrorAbortsWorld(t *testing.T) {
	sentinel := errors.New("rank 3 exploded")
	_, err := Run(testTopo(1, 8), DefaultNet(), 1, func(r *Rank) error {
		if r.ID() == 3 {
			return sentinel
		}
		// Other ranks park in a barrier; the abort must release them.
		return r.Barrier()
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestPanicAbortsWorld(t *testing.T) {
	_, err := Run(testTopo(1, 4), DefaultNet(), 1, func(r *Rank) error {
		if r.ID() == 0 {
			panic("boom")
		}
		return r.Barrier()
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestDeterministicRNG(t *testing.T) {
	collect := func() []float64 {
		out := make([]float64, 4)
		_, err := Run(testTopo(1, 4), DefaultNet(), 42, func(r *Rank) error {
			out[r.ID()] = r.RNG().Float64()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := collect(), collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d rng differs between runs: %f vs %f", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i] == a[0] {
			t.Fatalf("ranks 0 and %d produced identical streams", i)
		}
	}
}

func TestNetModelCosts(t *testing.T) {
	n := NetModel{Alpha: 1e-6, Bandwidth: 1e9, BytesPerElem: 8}
	if got := n.hopCost(1); got != 0 {
		t.Fatalf("hopCost(1)=%g", got)
	}
	if got := n.hopCost(8); math.Abs(got-3e-6) > 1e-15 {
		t.Fatalf("hopCost(8)=%g want 3e-6", got)
	}
	if got := n.xferCost(1000); math.Abs(got-8e-6) > 1e-15 {
		t.Fatalf("xferCost(1000)=%g want 8e-6", got)
	}
	if got := n.xferCost(-5); got != 0 {
		t.Fatalf("xferCost(-5)=%g want 0", got)
	}
}

// Property: makespan equals the max over ranks of per-rank charges
// when there is no communication.
func TestMakespanIsMaxProperty(t *testing.T) {
	f := func(charges []uint16) bool {
		if len(charges) == 0 || len(charges) > 64 {
			return true
		}
		want := 0.0
		for _, c := range charges {
			if v := float64(c) / 1000; v > want {
				want = v
			}
		}
		rep, err := Run(testTopo(1, len(charges)), NetModel{}, 1, func(r *Rank) error {
			r.Charge(float64(charges[r.ID()]) / 1000)
			return nil
		})
		if err != nil {
			return false
		}
		return math.Abs(rep.Makespan-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBarrier(b *testing.B) {
	_, err := Run(testTopo(4, 8), DefaultNet(), 1, func(r *Rank) error {
		for i := 0; i < b.N; i++ {
			if err := r.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllGather(b *testing.B) {
	_, err := Run(testTopo(4, 8), DefaultNet(), 1, func(r *Rank) error {
		for i := 0; i < b.N; i++ {
			if _, err := AllGather(r, r.ID()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

// TestGatherRootMatchesAllGatherClock is GatherRoot's contract with the
// simulated machine: gathering to the root and building there, once,
// leaves every rank's clock, every phase total and the communication
// ledger exactly where an all-gather followed by the same build on
// every rank leaves them — bit for bit, charges and all.
func TestGatherRootMatchesAllGatherClock(t *testing.T) {
	const p = 4
	// build charges uneven, non-representable amounts in two phases.
	build := func(r *Rank, parts [][]int) int {
		sum := 0
		for _, part := range parts {
			for _, v := range part {
				sum += v
				r.Charge(0.0137 + float64(v)*1e-5)
			}
		}
		r.SetPhase("finish")
		r.Charge(0.1)
		r.SetPhase("merge")
		return sum
	}
	part := func(r *Rank) []int {
		out := make([]int, r.ID()+2)
		for i := range out {
			out[i] = r.ID()*10 + i
		}
		return out
	}
	elems := func(v []int) int { return len(v) }
	body := func(gather func(r *Rank) (int, error)) func(r *Rank) error {
		return func(r *Rank) error {
			r.SetPhase("scan")
			r.Charge(float64(r.ID()+1) * 0.3)
			r.SetPhase("merge")
			for round := 0; round < 2; round++ { // twice: the publish slot is reused
				sum, err := gather(r)
				if err != nil {
					return err
				}
				if sum != 280 {
					return fmt.Errorf("rank %d round %d: sum %d, want 280", r.ID(), round, sum)
				}
			}
			r.SetPhase("dock")
			r.Charge(float64(p-r.ID()) * 0.7) // work after the gather sees the same clocks
			return r.Barrier()
		}
	}
	var builds atomic.Int64
	want, err := Run(testTopo(2, 2), DefaultNet(), 1, body(func(r *Rank) (int, error) {
		parts, err := AllGatherSized(r, part(r), elems)
		if err != nil {
			return 0, err
		}
		return build(r, parts), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(testTopo(2, 2), DefaultNet(), 1, body(func(r *Rank) (int, error) {
		return GatherRoot(r, 0, part(r), elems, func(parts [][]int) (int, error) {
			builds.Add(1)
			if r.ID() != 0 {
				return 0, fmt.Errorf("build ran on rank %d", r.ID())
			}
			before := r.Now()
			sum := build(r, parts)
			if r.Now() <= before {
				return 0, errors.New("Now() stood still while build charged")
			}
			return sum, nil
		})
	}))
	if err != nil {
		t.Fatal(err)
	}
	if builds.Load() != 2 {
		t.Fatalf("build ran %d times over 2 gathers, want 2", builds.Load())
	}
	if got.Makespan != want.Makespan || got.Comm != want.Comm {
		t.Fatalf("makespan/comm: got %v %+v, want %v %+v", got.Makespan, got.Comm, want.Makespan, want.Comm)
	}
	for name, w := range want.Phases {
		if got.Phases[name] != w {
			t.Fatalf("phase %s: got max %v, want %v", name, got.Phases[name], w)
		}
	}
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("phases: got %v, want %v", got.Phases, want.Phases)
	}
}

// TestGatherRootSharesOneResult: every rank gets the root's result
// itself, not a copy, and a failing build aborts the world instead of
// leaving ranks parked on the closing barrier.
func TestGatherRootSharesOneResult(t *testing.T) {
	type box struct{ parts []int }
	got := make([]*box, 4)
	_, err := Run(testTopo(1, 4), DefaultNet(), 1, func(r *Rank) error {
		b, err := GatherRoot(r, 0, r.ID(), func(int) int { return 1 }, func(parts []int) (*box, error) {
			return &box{parts}, nil
		})
		got[r.ID()] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b == nil || b != got[0] || len(b.parts) != 4 || b.parts[i] != i {
			t.Fatalf("rank %d got %+v, want rank 0's %+v", i, b, got[0])
		}
	}
	boom := errors.New("boom")
	_, err = Run(testTopo(1, 4), DefaultNet(), 1, func(r *Rank) error {
		_, err := GatherRoot(r, 0, r.ID(), func(int) int { return 1 }, func([]int) (*box, error) {
			return nil, boom
		})
		return err
	})
	if !errors.Is(err, boom) {
		t.Fatalf("world error = %v, want the build's", err)
	}
}

// TestLazyRNGKeepsSeedDerivation: building the source on first use must
// not change a single draw.
func TestLazyRNGKeepsSeedDerivation(t *testing.T) {
	const seed = 42
	_, err := Run(testTopo(1, 4), DefaultNet(), seed, func(r *Rank) error {
		want := rand.New(rand.NewSource(seed ^ int64(uint64(r.ID()+1)*0x9e3779b97f4a7c15>>1)))
		for i := 0; i < 8; i++ {
			if g, w := r.RNG().Int63(), want.Int63(); g != w {
				return fmt.Errorf("rank %d draw %d: %d, want %d", r.ID(), i, g, w)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
