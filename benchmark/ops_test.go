package main

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ids/internal/synth"
)

// fakeCatalog is enough ground truth to deal every workload's ops.
func fakeCatalog() *catalog {
	c := &catalog{
		compounds: map[string][]string{},
		screen:    map[string][][]string{},
	}
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("%sP%02d", synth.NSProtein, i)
		c.proteins = append(c.proteins, p)
		if i%2 == 0 {
			c.vecKeys = append(c.vecKeys, p)
		}
		if i < 8 {
			c.tier = append(c.tier, p)
			for j := 0; j <= i; j++ {
				c.compounds[p] = append(c.compounds[p], fmt.Sprintf("%sC%02d_%d", synth.NSCompound, i, j))
			}
		}
	}
	return c
}

// stream renders the first n ops of one client as one string.
func stream(workload string, seed int64, client, n int) string {
	g := newGenerator(workload, seed, client, fakeCatalog())
	var sb strings.Builder
	for i := 0; i < n; i++ {
		o := g.next()
		fmt.Fprintf(&sb, "%d %s %t %q %q %d %t\n", o.id, o.class, o.update, o.text, o.key, o.rows, o.full)
	}
	return sb.String()
}

func TestOpStreamIsAFunctionOfSeedAndClient(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(w.Name, 7, 0, 500), stream(w.Name, 7, 0, 500)
		if a != b {
			t.Errorf("%s: the same seed dealt two different op lists", w.Name)
		}
		if w.Name == "bulk_export" {
			continue // a single parameterless query: every seed deals the same list
		}
		if a == stream(w.Name, 8, 0, 500) {
			t.Errorf("%s: seeds 7 and 8 dealt the same op list", w.Name)
		}
		if a == stream(w.Name, 7, 1, 500) {
			t.Errorf("%s: clients 0 and 1 dealt the same op list", w.Name)
		}
	}
}

func TestDecksFixTheMix(t *testing.T) {
	want := map[string]map[string]int{
		"interactive_mix": {classPoint: 400, classJoin: 250, classOptional: 100, classAggregate: 100, classSimilar: 150},
		"bulk_export":     {classBulk: 1000},
		"ncnpr_screen":    {"screen_0.2": 250, "screen_0.4": 250, "screen_0.5": 250, "screen_0.99": 250},
		"read_write":      {classPoint: 500, classJoin: 300, classAggregate: 100, classUpdate: 100},
	}
	for _, w := range workloads {
		g := newGenerator(w.Name, 3, 0, fakeCatalog())
		got := map[string]int{}
		for i := 0; i < 1000; i++ {
			got[g.next().class]++
		}
		if fmt.Sprint(got) != fmt.Sprint(want[w.Name]) {
			t.Errorf("%s: 1000 ops dealt %v, want %v", w.Name, got, want[w.Name])
		}
	}
}

func TestUpdatesTrackTheirLiveSet(t *testing.T) {
	g := newGenerator("read_write", 5, 0, fakeCatalog())
	live := map[string]bool{}
	inserts, deletes, ownReads := 0, 0, 0
	for i := 0; i < 4000; i++ {
		o := g.next()
		subject := ""
		if serial, err := strconv.Atoi(o.key); err == nil {
			subject = strings.ReplaceAll(noteSubject(serial), tagMark, "x")
		}
		switch {
		case o.update && strings.HasPrefix(o.text, "INSERT DATA"):
			if live[subject] {
				t.Fatalf("op %d inserts %s twice", o.id, subject)
			}
			live[subject] = true
			inserts++
		case o.update:
			if !live[subject] {
				t.Fatalf("op %d deletes %s, which is not live", o.id, subject)
			}
			delete(live, subject)
			deletes++
		case o.class == classPoint && o.rows == 1:
			if !live[subject] || !strings.Contains(o.render("x"), subject) {
				t.Fatalf("op %d reads %s, which is not live", o.id, subject)
			}
			ownReads++
		}
	}
	if inserts != 360 || deletes != 40 || ownReads == 0 {
		t.Errorf("400 updates gave %d inserts, %d deletes, %d own reads; want 360, 40, >0", inserts, deletes, ownReads)
	}
	got := g.liveSubjects("x")
	if len(got) != len(live) {
		t.Fatalf("liveSubjects has %d entries, want %d", len(got), len(live))
	}
	for _, s := range got {
		if !live[s] {
			t.Errorf("liveSubjects lists %s, which was deleted or never inserted", s)
		}
	}
}

func TestSameRowsIsAMultisetCompare(t *testing.T) {
	a := [][]string{{"x", "1"}, {"y", "2"}, {"x", "1"}}
	if !sameRows(a, [][]string{{"y", "2"}, {"x", "1"}, {"x", "1"}}) {
		t.Error("a reordering must compare equal")
	}
	if sameRows(a, [][]string{{"x", "1"}, {"y", "2"}, {"y", "2"}}) {
		t.Error("different multiplicities must not compare equal")
	}
	if sameRows(a, a[:2]) {
		t.Error("different lengths must not compare equal")
	}
}

func TestCheckAggregateAcceptsAnyTieOrder(t *testing.T) {
	c := fakeCatalog() // tier protein i has i+1 compounds: counts 8..1
	row := func(i int, n int) []string { return []string{iriText(c.tier[i]), fmt.Sprint(n)} }
	good := [][]string{row(7, 8), row(6, 7), row(5, 6), row(4, 5), row(3, 4), row(2, 3), row(1, 2), row(0, 1)}
	if !c.checkAggregate(good) {
		t.Error("the true top counts were rejected")
	}
	bad := [][]string{row(7, 8), row(6, 6)}
	if c.checkAggregate(bad) {
		t.Error("a wrong count was accepted")
	}
	if c.checkAggregate([][]string{row(7, 8), row(7, 8)}) {
		t.Error("a repeated protein was accepted")
	}
}

// Every class's checker must agree with the engine it checks: deal
// each workload's ops against a small live instance and expect no
// failure, with every op checked by its full row set.
func TestCheckersAgreeWithALiveInstance(t *testing.T) {
	small := ncnprConfig(7)
	small.BackgroundProteins, small.UnreviewedProteins = 120, 30
	for _, w := range workloads {
		dir := ""
		if w.Name == "read_write" {
			dir = t.TempDir()
		}
		sys, err := setUp(small, 1, 64, dir)
		if err != nil {
			t.Fatal(err)
		}
		cat := newCatalog(sys.ds, sys.vecKeys)
		if err := cat.buildScreenTruth(sys.inst.Engine.Reg); err != nil {
			t.Fatal(err)
		}
		l := newLane("t", w.Name, 11, 0, cat)
		c := newClient(sys.inst.Addr)
		for i := 0; i < 80; i++ {
			o := l.gen.next()
			o.full = true
			a, err := execOp(c, o, l.tag)
			if err != nil || !cat.check(o, a) {
				t.Fatalf("%s op %d (%s): err %v, answer rejected: %s", w.Name, o.id, o.class, err, o.render(l.tag))
			}
		}
		c.HTTP.CloseIdleConnections()
		if dir != "" {
			if _, err := checkDurable(sys, []*lane{l}); err != nil {
				t.Errorf("%s: %v", w.Name, err)
			}
		}
		sys.inst.Teardown()
	}
}
