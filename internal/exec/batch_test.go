package exec

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"ids/internal/dict"
	"ids/internal/expr"
	"ids/internal/mpp"
	"ids/internal/udf"
)

// batchRows renders a batch as sorted "id,id,..." strings for
// order-insensitive comparison.
func batchRows(b *Batch) []string {
	out := make([]string, b.NRows)
	for i := 0; i < b.NRows; i++ {
		s := ""
		for j := range b.Cols {
			s += fmt.Sprintf("%d,", b.Cols[j][i])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

// tableRowsAsIDs renders a table the same way (IDs and nulls only).
func tableRowsAsIDs(t *Table) []string {
	out := make([]string, len(t.Rows))
	for i, row := range t.Rows {
		s := ""
		for _, v := range row {
			if v.Kind == expr.KindID {
				s += fmt.Sprintf("%d,", v.ID)
			} else {
				s += "0,"
			}
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func TestScanBatchMatchesScan(t *testing.T) {
	g := buildGraph(2)
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		for _, p := range []struct{ s, p, o string }{
			{"?s", "http://x/age", "?a"},
			{"?s", "?p", "?o"},
			{"http://x/person3", "http://x/age", "?a"},
			{"?s", "http://x/nosuch", "?o"},
			{"?s", "http://x/knows", "?s"}, // repeated var: no self-loops
		} {
			tp := pat(p.s, p.p, p.o)
			rows, err := Scan(r, g.Shard(r.ID()), g.Dict, tp)
			if err != nil {
				return err
			}
			batch, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, tp, a)
			if err != nil {
				return err
			}
			if got, want := batch.Len(), rows.Len(); got != want {
				return fmt.Errorf("pattern %v: batch %d rows, row engine %d", tp, got, want)
			}
			bt := batch.Materialize()
			br, rr := tableRowsAsIDs(bt), tableRowsAsIDs(rows)
			for i := range br {
				if br[i] != rr[i] {
					return fmt.Errorf("pattern %v row %d: %q vs %q", tp, i, br[i], rr[i])
				}
			}
		}
		return nil
	})
}

func TestHashJoinBatchMatchesHashJoin(t *testing.T) {
	g := buildGraph(2)
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		l, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/knows", "?t"), a)
		if err != nil {
			return err
		}
		rt, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?t", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		joined, err := HashJoinBatch(r, l, rt, a)
		if err != nil {
			return err
		}
		// The engines partition by different hash functions, so per-rank
		// counts may differ; the gathered (global) row set must not.
		got, err := GatherBatch(r, joined, a)
		if err != nil {
			return err
		}
		lr, err := Scan(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/knows", "?t"))
		if err != nil {
			return err
		}
		rr, err := Scan(r, g.Shard(r.ID()), g.Dict, pat("?t", "http://x/age", "?a"))
		if err != nil {
			return err
		}
		wj, err := HashJoin(r, lr, rr)
		if err != nil {
			return err
		}
		want, err := Gather(r, wj)
		if err != nil {
			return err
		}
		if got.Len() != want.Len() {
			return fmt.Errorf("join rows: batch %d, row %d", got.Len(), want.Len())
		}
		gm, wm := tableRowsAsIDs(got.Materialize()), tableRowsAsIDs(want)
		for i := range gm {
			if gm[i] != wm[i] {
				return fmt.Errorf("join row %d: %q vs %q", i, gm[i], wm[i])
			}
		}
		return nil
	})
}

func TestLeftJoinBatchNullExtension(t *testing.T) {
	g := buildGraph(1)
	runWorld(t, 1, func(r *mpp.Rank) error {
		a := NewArena()
		l, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		// Right side empty: every left row survives null-extended.
		empty, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/nosuch", "?d"), a)
		if err != nil {
			return err
		}
		out, err := LeftJoinBatch(r, l, empty, a)
		if err != nil {
			return err
		}
		if out.Len() != l.Len() {
			return fmt.Errorf("left join dropped rows: %d vs %d", out.Len(), l.Len())
		}
		di := out.Col("d")
		if di < 0 {
			return fmt.Errorf("missing null-extended column, vars %v", out.Vars)
		}
		for i := 0; i < out.NRows; i++ {
			if out.Cols[di][i] != dict.None {
				return fmt.Errorf("row %d: unmatched right column bound to %d", i, out.Cols[di][i])
			}
		}
		// Materialized nulls must be expr.Null, as in the row engine.
		tab := out.Materialize()
		for _, row := range tab.Rows {
			if !row[di].IsNull() {
				return fmt.Errorf("materialized null cell = %v", row[di])
			}
		}
		return nil
	})
}

func TestDistinctAndFilterBatch(t *testing.T) {
	g := buildGraph(2)
	reg := udf.NewRegistry()
	runWorld(t, 2, func(r *mpp.Rank) error {
		a := NewArena()
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		e := &expr.Cmp{Op: expr.GE, L: &expr.Var{Name: "a"}, R: &expr.Const{Val: expr.Float(30)}}
		prof := udf.NewProfiler()
		res := expr.DictResolver{Dict: g.Dict}
		fb, fstats, err := FilterBatch(r, b, e, reg, prof, res, FilterOpts{}, a)
		if err != nil {
			return err
		}
		if fstats.Evaluated != b.Len() {
			return fmt.Errorf("evaluated %d of %d", fstats.Evaluated, b.Len())
		}
		db, err := DistinctGlobalBatch(r, fb, a)
		if err != nil {
			return err
		}
		gb, err := GatherBatch(r, db, a)
		if err != nil {
			return err
		}
		// Ages 30..39 → 10 distinct rows on every rank after gather.
		if gb.Len() != 10 {
			return fmt.Errorf("gathered %d rows, want 10", gb.Len())
		}
		return nil
	})
}

// TestArenaWarmReuse pins the allocation contract: a second identical
// query against a Reset arena must add zero fresh heap.
func TestArenaWarmReuse(t *testing.T) {
	g := buildGraph(1)
	a := NewArena()
	run := func() {
		runWorld(t, 1, func(r *mpp.Rank) error {
			l, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?s", "http://x/knows", "?t"), a)
			if err != nil {
				return err
			}
			rt, err := ScanBatch(r, g.Shard(0), g.Dict, pat("?t", "http://x/age", "?v"), a)
			if err != nil {
				return err
			}
			_, err = HashJoinBatch(r, l, rt, a)
			return err
		})
	}
	run()
	b0, m0 := a.Fresh()
	if b0 <= 0 || m0 <= 0 {
		t.Fatalf("cold run reported no fresh heap: %d/%d", b0, m0)
	}
	for i := 0; i < 3; i++ {
		a.Reset()
		run()
		b1, m1 := a.Fresh()
		if b1 != b0 || m1 != m0 {
			t.Fatalf("warm run %d grew the arena: bytes %d->%d mallocs %d->%d", i, b0, b1, m0, m1)
		}
	}
}

func TestArenaPoolSlots(t *testing.T) {
	p := NewArenaPool()
	s1 := p.Get(3, 2)
	if len(s1) != 2 {
		t.Fatalf("set size = %d", len(s1))
	}
	s1[0].AllocIDs(10)
	p.Put(3, s1)
	s2 := p.Get(3, 2)
	if s2[0] != s1[0] {
		t.Fatal("slot did not recycle its arena set")
	}
	if b, _ := s2[0].Fresh(); b <= 0 {
		t.Fatal("recycled arena lost its slab")
	}
	// Unslotted gets draw from the shared free list.
	p.Put(-1, s2)
	s3 := p.Get(-1, 2)
	if s3[0] != s2[0] {
		t.Fatal("free list did not recycle")
	}
}

// TestGatherToFinishesOnRootOnly: both gathers run what follows them
// once, on the root, over every rank's rows, and hand each rank that
// one result.
func TestGatherToFinishesOnRootOnly(t *testing.T) {
	g := buildGraph(4)
	var finishes atomic.Int64
	tabs := make([]*Table, 4)
	batches := make([]*Batch, 4)
	runWorld(t, 4, func(r *mpp.Rank) error {
		a := NewArena()
		b, err := ScanBatch(r, g.Shard(r.ID()), g.Dict, pat("?s", "http://x/age", "?a"), a)
		if err != nil {
			return err
		}
		local := b.Materialize()
		tabs[r.ID()], err = GatherBatchTo(r, b, a, func(all *Batch) (*Table, error) {
			finishes.Add(1)
			if r.ID() != RootRank {
				return nil, fmt.Errorf("batch finish ran on rank %d", r.ID())
			}
			return all.Materialize(), nil
		})
		if err != nil {
			return err
		}
		rowTab, err := GatherTo(r, local, func(all *Table) (*Table, error) {
			finishes.Add(1)
			if r.ID() != RootRank {
				return nil, fmt.Errorf("row finish ran on rank %d", r.ID())
			}
			return all, nil
		})
		if err != nil {
			return err
		}
		if got, want := tableRowsAsIDs(rowTab), tableRowsAsIDs(tabs[r.ID()]); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("rank %d: row gather %v, batch gather %v", r.ID(), got, want)
		}
		batches[r.ID()], err = GatherBatch(r, b, a)
		return err
	})
	if finishes.Load() != 2 {
		t.Fatalf("finish ran %d times over 2 gathers, want 2", finishes.Load())
	}
	for i := range tabs {
		if tabs[i] != tabs[0] || batches[i] != batches[0] {
			t.Fatalf("rank %d holds its own copy of the gathered result", i)
		}
	}
	if tabs[0].Len() != 20 || batches[0].Len() != 20 { // buildGraph: 20 people with an age
		t.Fatalf("gathered %d rows (batch %d), want 20", tabs[0].Len(), batches[0].Len())
	}
}
