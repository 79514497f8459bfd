package triple

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ids/internal/dict"
)

func tr(s, p, o dict.ID) Triple { return Triple{S: s, P: p, O: o} }

func buildStore(ts ...Triple) *Store {
	st := New()
	for _, t := range ts {
		st.Add(t)
	}
	st.Seal()
	return st
}

func collect(st *Store, p Pattern) []Triple {
	var out []Triple
	st.Match(p, func(t Triple) bool { out = append(out, t); return true })
	return out
}

func TestSealDeduplicates(t *testing.T) {
	st := buildStore(tr(1, 2, 3), tr(1, 2, 3), tr(1, 2, 4))
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
}

func TestSealIdempotent(t *testing.T) {
	st := buildStore(tr(1, 2, 3))
	st.Seal()
	st.Seal()
	if st.Len() != 1 || !st.sealed {
		t.Fatal("Seal not idempotent")
	}
}

func TestMatchUnsealedPanics(t *testing.T) {
	st := New()
	st.Add(tr(1, 2, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("Match on unsealed store did not panic")
		}
	}()
	st.Match(Pattern{}, func(Triple) bool { return true })
}

func TestMatchAllPatterns(t *testing.T) {
	// A small graph exercising every bound/unbound combination.
	st := buildStore(
		tr(1, 10, 100), tr(1, 10, 101), tr(1, 11, 100),
		tr(2, 10, 100), tr(2, 11, 102), tr(3, 12, 103),
	)
	cases := []struct {
		name string
		pat  Pattern
		want int
	}{
		{"all", Pattern{}, 6},
		{"s", Pattern{S: 1}, 3},
		{"p", Pattern{P: 10}, 3},
		{"o", Pattern{O: 100}, 3},
		{"sp", Pattern{S: 1, P: 10}, 2},
		{"so", Pattern{S: 1, O: 100}, 2},
		{"po", Pattern{P: 10, O: 100}, 2},
		{"spo hit", Pattern{S: 2, P: 11, O: 102}, 1},
		{"spo miss", Pattern{S: 2, P: 11, O: 999}, 0},
		{"absent s", Pattern{S: 77}, 0},
	}
	for _, c := range cases {
		if got := st.Count(c.pat); got != c.want {
			t.Errorf("%s: Count = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := buildStore(tr(1, 1, 1), tr(1, 1, 2), tr(1, 1, 3))
	n := 0
	st.Match(Pattern{S: 1}, func(Triple) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

func TestContains(t *testing.T) {
	st := buildStore(tr(5, 6, 7))
	if !st.Contains(tr(5, 6, 7)) {
		t.Fatal("Contains missed present triple")
	}
	if st.Contains(tr(5, 6, 8)) {
		t.Fatal("Contains found absent triple")
	}
}

func TestPredicateStats(t *testing.T) {
	st := buildStore(tr(1, 10, 1), tr(2, 10, 2), tr(3, 11, 3))
	stats := st.PredicateStats()
	if stats[10] != 2 || stats[11] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

// Property: after every Insert/Delete on a sealed store, the run-length
// PredicateStats equals a per-triple recount of what the store holds.
// Predicates include 0 and the largest ID, where an end-of-run search
// bounded by p+1 would overflow; a predicate whose last triple is
// deleted must vanish from the map, not stay at 0.
func TestPredicateStatsMatchesRecount(t *testing.T) {
	const maxID = dict.ID(math.MaxUint64)
	check := func(t *testing.T, st *Store, held map[Triple]bool) {
		t.Helper()
		want := map[dict.ID]int{}
		for x := range held {
			want[x.P]++
		}
		if got := st.PredicateStats(); !maps.Equal(got, want) {
			t.Fatalf("PredicateStats = %v, recount = %v", got, want)
		}
	}
	check(t, New(), nil)
	check(t, buildStore(), nil)

	for _, tc := range []struct {
		name  string
		preds []dict.ID
	}{
		{"one predicate", []dict.ID{7}},
		{"one predicate at max", []dict.ID{maxID}},
		{"mixed", []dict.ID{0, 1, 2, 3, maxID - 1, maxID}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			st, held := buildStore(), map[Triple]bool{}
			for step := 0; step < 2000; step++ {
				x := tr(dict.ID(rng.Intn(6)+1), tc.preds[rng.Intn(len(tc.preds))], dict.ID(rng.Intn(6)+1))
				// Deletes grow likelier as the store fills, so
				// predicates keep emptying and refilling.
				if rng.Intn(len(held)+8) >= 8 {
					if st.Delete(x) {
						delete(held, x)
					}
				} else if st.Insert(x) {
					held[x] = true
				}
				check(t, st, held)
			}
			rest := make([]Triple, 0, len(held))
			for x := range held {
				rest = append(rest, x)
			}
			slices.SortFunc(rest, cmpSPO)
			for _, x := range rest {
				st.Delete(x)
				delete(held, x)
				check(t, st, held)
			}
			if st.Len() != 0 {
				t.Fatalf("Len = %d after deleting everything", st.Len())
			}
		})
	}
}

// Property: Match against a brute-force reference over random data.
func TestMatchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ts []Triple
	for i := 0; i < 500; i++ {
		ts = append(ts, tr(
			dict.ID(rng.Intn(20)+1),
			dict.ID(rng.Intn(5)+1),
			dict.ID(rng.Intn(20)+1),
		))
	}
	st := buildStore(ts...)
	// Dedup reference set.
	ref := map[Triple]bool{}
	for _, x := range ts {
		ref[x] = true
	}
	for trial := 0; trial < 200; trial++ {
		pat := Pattern{}
		if rng.Intn(2) == 0 {
			pat.S = dict.ID(rng.Intn(22))
		}
		if rng.Intn(2) == 0 {
			pat.P = dict.ID(rng.Intn(7))
		}
		if rng.Intn(2) == 0 {
			pat.O = dict.ID(rng.Intn(22))
		}
		want := 0
		for x := range ref {
			if (pat.S == dict.None || x.S == pat.S) &&
				(pat.P == dict.None || x.P == pat.P) &&
				(pat.O == dict.None || x.O == pat.O) {
				want++
			}
		}
		if got := st.Count(pat); got != want {
			t.Fatalf("pattern %+v: Count = %d, want %d", pat, got, want)
		}
	}
}

func TestInsertDeleteSealed(t *testing.T) {
	st := buildStore(tr(1, 2, 3), tr(4, 5, 6))
	if !st.Insert(tr(7, 8, 9)) {
		t.Fatal("Insert failed")
	}
	if st.Insert(tr(7, 8, 9)) {
		t.Fatal("duplicate Insert succeeded")
	}
	if st.Len() != 3 || !st.Contains(tr(7, 8, 9)) {
		t.Fatalf("Len = %d", st.Len())
	}
	// All indexes stay consistent: every access path finds it.
	if st.Count(Pattern{S: 7}) != 1 || st.Count(Pattern{P: 8}) != 1 || st.Count(Pattern{O: 9}) != 1 {
		t.Fatal("Insert left indexes inconsistent")
	}
	if !st.Delete(tr(4, 5, 6)) {
		t.Fatal("Delete failed")
	}
	if st.Delete(tr(4, 5, 6)) {
		t.Fatal("double Delete succeeded")
	}
	if st.Contains(tr(4, 5, 6)) || st.Len() != 2 {
		t.Fatal("Delete ineffective")
	}
	if st.Count(Pattern{P: 5}) != 0 || st.Count(Pattern{O: 6}) != 0 {
		t.Fatal("Delete left indexes inconsistent")
	}
}

func TestInsertDeleteUnsealedPanics(t *testing.T) {
	st := New()
	st.Add(tr(1, 1, 1))
	for _, f := range []func(){
		func() { st.Insert(tr(2, 2, 2)) },
		func() { st.Delete(tr(1, 1, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("unsealed mutation did not panic")
				}
			}()
			f()
		}()
	}
}

func BenchmarkMatchBoundSP(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	st := New()
	for i := 0; i < 100000; i++ {
		st.Add(tr(dict.ID(rng.Intn(1000)+1), dict.ID(rng.Intn(20)+1), dict.ID(rng.Intn(5000)+1)))
	}
	st.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Count(Pattern{S: dict.ID(i%1000 + 1), P: dict.ID(i%20 + 1)})
	}
}

func BenchmarkSeal(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]Triple, 50000)
	for i := range base {
		base[i] = tr(dict.ID(rng.Intn(5000)+1), dict.ID(rng.Intn(20)+1), dict.ID(rng.Intn(5000)+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := New()
		for _, t := range base {
			st.Add(t)
		}
		st.Seal()
	}
}
