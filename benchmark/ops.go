package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"ids/internal/expr"
	"ids/internal/synth"
	"ids/internal/udf"
	"ids/internal/workflow"
)

// Op classes. Each is one query (or update) shape; a workload is a
// fixed-proportion deck of them.
const (
	classPoint     = "point"
	classJoin      = "join"
	classOptional  = "optional"
	classAggregate = "aggregate"
	classSimilar   = "similar"
	classBulk      = "bulk"
	classScreen    = "screen"
	classUpdate    = "update"
)

// decks fix each workload's class proportions exactly: the generator
// deals a shuffled deck and reshuffles when it runs out, so two seeds
// differ in order and parameters but never in mix.
var decks = map[string][]string{
	"interactive_mix": slices.Concat(cards(classPoint, 8), cards(classJoin, 5), cards(classOptional, 2), cards(classAggregate, 2), cards(classSimilar, 3)),
	"bulk_export":     cards(classBulk, 1),
	"ncnpr_screen":    screenDeck(),
	"read_write":      slices.Concat(cards(classPoint, 5), cards(classJoin, 3), cards(classAggregate, 1), cards(classUpdate, 1)),
}

func cards(class string, n int) []string {
	d := make([]string, n)
	for i := range d {
		d[i] = class
	}
	return d
}

var screenThresholds = []float64{0.2, 0.4, 0.5, 0.99}

// screenDeck makes each threshold its own class ("screen_0.2", ...):
// the 1,129-candidate threshold costs a third more than the others,
// and per-class medians only subtract cleanly within one cost profile.
func screenDeck() []string {
	var d []string
	for _, t := range screenThresholds {
		d = append(d, classScreen+"_"+strconv.FormatFloat(t, 'g', -1, 64))
	}
	return d
}

// screenQuery renders workflow.InnerQuery, which reads only the
// thresholds in Cfg, so no engine needs to be bound.
var screenQuery = &workflow.Workflow{Cfg: workflow.DefaultConfig()}

const (
	// fullCheckEvery: 1 op in this many is checked by full row-set
	// equality; the others by row count.
	fullCheckEvery = 64
	// deleteEvery: 1 update in this many deletes an earlier insert.
	deleteEvery = 10
	// tagMark stands for the lane tag in the text of ops that touch
	// inserted triples; render substitutes it. Each lane of the traced
	// run (and each client) writes under its own tag, so no probe
	// measures an idempotent no-op.
	tagMark = "%TAG%"

	prefixes = "PREFIX up: <" + synth.NSUp + "> PREFIX ch: <" + synth.NSChem + "> "
)

// op is one generated operation and what its answer must be.
type op struct {
	id     int
	class  string
	update bool
	text   string
	// key is the parameter the answer depends on: a protein IRI, a
	// threshold, or an inserted triple's serial number.
	key string
	// rows is the expected row count (queries) or applied-triple count
	// (updates).
	rows int
	full bool
}

func (o op) render(tag string) string { return strings.ReplaceAll(o.text, tagMark, tag) }

// generator deals one client's op stream. It is a pure function of
// (workload, seed, client): the server sees only the rendered text.
type generator struct {
	cat      *catalog
	deck     []string
	rng      *rand.Rand
	hand     []string
	n        int
	updates  int
	inserted int   // serial of the next inserted triple
	live     []int // serials inserted and not yet deleted
}

func newGenerator(workload string, seed int64, client int, cat *catalog) *generator {
	return &generator{
		cat:  cat,
		deck: decks[workload],
		rng:  rand.New(rand.NewSource(seed*1_000_003 + int64(client))),
	}
}

func noteSubject(serial int) string {
	return fmt.Sprintf("<%s%s/n%d>", benchNS, tagMark, serial)
}

func pick(rng *rand.Rand, xs []string) string { return xs[rng.Intn(len(xs))] }

func (g *generator) next() op {
	if len(g.hand) == 0 {
		g.hand = slices.Clone(g.deck)
		g.rng.Shuffle(len(g.hand), func(i, j int) { g.hand[i], g.hand[j] = g.hand[j], g.hand[i] })
	}
	class := g.hand[len(g.hand)-1]
	g.hand = g.hand[:len(g.hand)-1]
	o := op{id: g.n, class: class, full: g.n%fullCheckEvery == fullCheckEvery-1}
	g.n++
	c := g.cat
	if key, ok := strings.CutPrefix(class, classScreen+"_"); ok {
		t, _ := strconv.ParseFloat(key, 64)
		o.key = key
		o.text = screenQuery.InnerQuery(t)
		o.rows = len(c.screen[key])
		return o
	}
	switch class {
	case classPoint:
		// A fifth of the point reads in a writing workload look up one
		// of the client's own live inserts.
		if len(g.live) > 0 && g.rng.Intn(5) == 0 {
			serial := g.live[g.rng.Intn(len(g.live))]
			o.key = strconv.Itoa(serial)
			o.text = "SELECT ?p ?o WHERE { " + noteSubject(serial) + " ?p ?o }"
			o.rows = 1
			break
		}
		o.key = pick(g.rng, c.proteins)
		o.text = "SELECT ?p ?o WHERE { <" + o.key + "> ?p ?o }"
		o.rows = 4
	case classJoin:
		o.key = pick(g.rng, c.tier)
		o.text = prefixes + "SELECT ?c ?smiles ?ic50 WHERE { ?c ch:inhibits <" + o.key +
			"> . ?c ch:smiles ?smiles . ?c ch:ic50 ?ic50 }"
		o.rows = len(c.compounds[o.key])
	case classOptional:
		// Half the anchors have compounds, half (almost surely) none,
		// so both the matched and the null-extended side are exercised.
		if g.rng.Intn(2) == 0 {
			o.key = pick(g.rng, c.tier)
		} else {
			o.key = pick(g.rng, c.proteins)
		}
		o.text = prefixes + "SELECT ?m ?c ?ic50 WHERE { <" + o.key + "> up:mnemonic ?m . OPTIONAL { ?c ch:inhibits <" +
			o.key + "> . ?c ch:ic50 ?ic50 } }"
		o.rows = max(1, len(c.compounds[o.key]))
	case classAggregate:
		o.text = prefixes + "SELECT ?protein (COUNT(?c) AS ?n) WHERE { ?c ch:inhibits ?protein } " +
			"GROUP BY ?protein ORDER BY DESC(?n) LIMIT 10"
		o.rows = min(10, len(c.tier))
	case classSimilar:
		o.key = pick(g.rng, c.vecKeys)
		o.text = prefixes + "SELECT ?p ?m WHERE { SIMILAR(?p, <" + o.key + ">, " + strconv.Itoa(similarK) +
			", \"" + vecStoreName + "\") . ?p up:mnemonic ?m }"
		o.rows = min(similarK, len(c.vecKeys))
	case classBulk:
		o.text = prefixes + "SELECT ?p ?m ?seq WHERE { ?p up:reviewed \"false\" . ?p up:mnemonic ?m . ?p up:sequence ?seq }"
		o.rows = len(c.unreviewed)
	case classUpdate:
		o.update = true
		o.rows = 1
		g.updates++
		if g.updates%deleteEvery == 0 && len(g.live) > 0 {
			i := g.rng.Intn(len(g.live))
			serial := g.live[i]
			g.live = slices.Delete(g.live, i, i+1)
			o.key = strconv.Itoa(serial)
			o.text = fmt.Sprintf("DELETE DATA { %s <%s> \"v%d\" . }", noteSubject(serial), predNote, serial)
			break
		}
		serial := g.inserted
		g.inserted++
		g.live = append(g.live, serial)
		o.key = strconv.Itoa(serial)
		o.text = fmt.Sprintf("INSERT DATA { %s <%s> \"v%d\" . }", noteSubject(serial), predNote, serial)
	}
	return o
}

// liveSubjects renders the subjects of the generator's live inserts
// under a lane tag: what a durability check must find.
func (g *generator) liveSubjects(tag string) []string {
	out := make([]string, len(g.live))
	for i, serial := range g.live {
		out[i] = strings.ReplaceAll(noteSubject(serial), tagMark, tag)
	}
	return out
}

// wantRows returns the exact row set of a query op whose answer the
// catalog determines (nil for classes checked another way).
func (c *catalog) wantRows(o op) [][]string {
	if strings.HasPrefix(o.class, classScreen) {
		return c.screen[o.key]
	}
	switch o.class {
	case classPoint:
		if o.rows == 1 {
			return [][]string{{iriText(predNote), litText("v" + o.key)}}
		}
		return [][]string{
			{iriText(synth.PredType), iriText(synth.ClassProtein)},
			{iriText(synth.PredReviewed), litText(strconv.FormatBool(c.reviewed[o.key]))},
			{iriText(synth.PredSequence), litText(c.seq[o.key])},
			{iriText(synth.PredMnemonic), litText(c.mnemonic[o.key])},
		}
	case classJoin:
		var rows [][]string
		for _, cp := range c.compounds[o.key] {
			rows = append(rows, []string{iriText(cp), litText(c.smiles[cp]), litText(c.ic50[cp])})
		}
		return rows
	case classOptional:
		m := litText(c.mnemonic[o.key])
		if len(c.compounds[o.key]) == 0 {
			return [][]string{{m, "null", "null"}}
		}
		var rows [][]string
		for _, cp := range c.compounds[o.key] {
			rows = append(rows, []string{m, iriText(cp), litText(c.ic50[cp])})
		}
		return rows
	case classBulk:
		rows := make([][]string, len(c.unreviewed))
		for i, p := range c.unreviewed {
			rows[i] = []string{iriText(p), litText(c.mnemonic[p]), litText(c.seq[p])}
		}
		return rows
	}
	return nil
}

// buildScreenTruth derives the inner query's answer at every threshold
// from the dataset's ground-truth similarities, re-applying the
// potency and affinity predicates through the registry.
func (c *catalog) buildScreenTruth(reg *udf.Registry) error {
	cfg := screenQuery.Cfg
	c.screen = map[string][][]string{}
	for _, t := range screenThresholds {
		key := strconv.FormatFloat(t, 'g', -1, 64)
		c.screen[key] = [][]string{}
		for _, p := range c.tier {
			if c.sim[p] < t {
				continue
			}
			for _, cp := range c.compounds[p] {
				ic50, err := strconv.ParseFloat(c.ic50[cp], 64)
				if err != nil {
					return fmt.Errorf("ic50 of %s: %w", cp, err)
				}
				potency, _, err := reg.CallUDF("ncnpr.pic50", []expr.Value{expr.Float(ic50)})
				if err != nil {
					return err
				}
				affinity, _, err := reg.CallUDF("ncnpr.dtba", []expr.Value{expr.String(c.seq[p]), expr.String(c.smiles[cp])})
				if err != nil {
					return err
				}
				if potency.Num > cfg.PIC50Threshold && affinity.Num > cfg.DTBAThreshold {
					c.screen[key] = append(c.screen[key], []string{iriText(cp), litText(c.smiles[cp]), litText(c.seq[p])})
				}
			}
		}
	}
	return nil
}

// sameRows reports whether got and want hold the same rows, as
// multisets.
func sameRows(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	count := make(map[string]int, len(want))
	for _, r := range want {
		count[strings.Join(r, "\x00")]++
	}
	for _, r := range got {
		k := strings.Join(r, "\x00")
		if count[k] == 0 {
			return false
		}
		count[k]--
	}
	return true
}

// checkAggregate verifies the top-10 inhibitor counts: every row's
// count is that protein's true count, no protein repeats, and the
// counts are the ten largest. Ties make the protein choice free.
func (c *catalog) checkAggregate(rows [][]string) bool {
	var top []int
	for _, p := range c.tier {
		top = append(top, len(c.compounds[p]))
	}
	slices.Sort(top)
	slices.Reverse(top)
	seen := map[string]bool{}
	for i, r := range rows {
		if len(r) != 2 || seen[r[0]] {
			return false
		}
		seen[r[0]] = true
		p := strings.TrimSuffix(strings.TrimPrefix(r[0], "<"), ">")
		if r[1] != strconv.Itoa(len(c.compounds[p])) || len(c.compounds[p]) != top[i] {
			return false
		}
	}
	return true
}
