package workflow

import (
	"fmt"
	"testing"
)

func TestGenerateAndScreen(t *testing.T) {
	w := newWorkflow(t, 4, false)
	gr, err := w.GenerateAndScreen(60, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Generated != 60 {
		t.Fatalf("generated = %d", gr.Generated)
	}
	if gr.Screened == 0 {
		t.Fatal("DTBA screen rejected everything (threshold miscalibrated)")
	}
	if len(gr.Docked) == 0 || len(gr.Docked) > 5 {
		t.Fatalf("docked = %d, want 1..5", len(gr.Docked))
	}
	// Results sorted best-first.
	for i := 1; i < len(gr.Docked); i++ {
		if gr.Docked[i].Affinity < gr.Docked[i-1].Affinity {
			t.Fatal("docked candidates not sorted by affinity")
		}
	}
	// Each docked survivor is named generated/<seed>/<screen rank>.
	names := map[string]bool{}
	for _, c := range gr.Docked {
		names[c.Compound] = true
	}
	for i := range gr.Docked {
		if name := fmt.Sprintf("generated/11/%d", i); !names[name] {
			t.Fatalf("no docked candidate named %s: %+v", name, gr.Docked)
		}
	}
	// Phases present.
	if gr.Report.PhaseMax("dtba-screen") <= 0 || gr.Report.PhaseMax("dock") <= 0 {
		t.Fatalf("phases = %v", gr.Report.Phases)
	}
}

func TestGenerateAndScreenDeterministic(t *testing.T) {
	a, err := newWorkflow(t, 4, false).GenerateAndScreen(40, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newWorkflow(t, 4, false).GenerateAndScreen(40, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.Screened != b.Screened || len(a.Docked) != len(b.Docked) {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Screened, len(a.Docked), b.Screened, len(b.Docked))
	}
	for i := range a.Docked {
		if a.Docked[i].SMILES != b.Docked[i].SMILES || a.Docked[i].Affinity != b.Docked[i].Affinity {
			t.Fatalf("candidate %d differs", i)
		}
	}
}

func TestGenerateAndScreenUsesCache(t *testing.T) {
	w := newWorkflow(t, 4, true)
	first, err := w.GenerateAndScreen(40, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	cached := func(gr *GenerateResult) (n int) {
		for _, c := range gr.Docked {
			if c.Cached {
				n++
			}
		}
		return n
	}
	if n := cached(first); n != 0 {
		t.Fatalf("cold run hit %d times", n)
	}
	second, err := w.GenerateAndScreen(40, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	if n := cached(second); n != len(second.Docked) {
		t.Fatalf("repeat run missed %d times", len(second.Docked)-n)
	}
	if second.Report.Makespan > first.Report.Makespan*1.01 {
		t.Fatalf("warm generative run slower: %f vs %f",
			second.Report.Makespan, first.Report.Makespan)
	}
}
