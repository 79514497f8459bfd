package ids

import (
	"fmt"
	"strings"
	"testing"

	"ids/internal/dict"
	"ids/internal/kg"
	"ids/internal/mpp"
	"ids/internal/sparql"
)

// probeGraph is shaped like the paper's inner query at small scale:
// 2,000 proteins, each typed, reviewed or not, and named, so a pattern
// with a constant object is estimated at 2000/16+1 = 126 rows and one
// with a variable object at 2,000; ten compounds (two per inhibited
// protein) with an IC50 each; five links between proteins.
func probeGraph(shards int) *kg.Graph {
	g := kg.New(shards)
	iri := func(s string) dict.Term { return dict.Term{Kind: dict.IRI, Value: "http://x/" + s} }
	lit := func(s string) dict.Term { return dict.Term{Kind: dict.Literal, Value: s} }
	for i := 0; i < 2000; i++ {
		p := iri(fmt.Sprintf("p%d", i))
		g.Add(p, iri("type"), iri("Protein"))
		g.Add(p, iri("reviewed"), lit(fmt.Sprint(i%3 != 0)))
		g.Add(p, iri("name"), lit(fmt.Sprintf("n%d", i%700)))
	}
	for j := 0; j < 10; j++ {
		c := iri(fmt.Sprintf("c%d", j))
		g.Add(c, iri("inhibits"), iri(fmt.Sprintf("p%d", 7*(j%5))))
		g.Add(c, iri("ic50"), lit(fmt.Sprint(3*j)))
	}
	for i := 0; i < 5; i++ {
		g.Add(iri(fmt.Sprintf("p%d", i)), iri("links"), iri(fmt.Sprintf("p%d", 7*i+1)))
	}
	g.Seal()
	return g
}

// TestExchangeProbeJoin checks the join methods the physical plan picks
// for a subject join, against the reference at 1 to 4 ranks. A stream
// the plan estimates at under an eighth of the pattern is sent to the
// owners of its ?v and probes their indexes ("exchange, probe ?v"); a
// stream already placed on ?v probes with no exchange ("probe ?v");
// anything else is hash-joined. Each case pins how many probes and
// exchanges the query runs.
func TestExchangeProbeJoin(t *testing.T) {
	const pre = `PREFIX x: <http://x/> `
	cases := []struct {
		name, q           string
		probes, exchanges int
	}{
		// The inner query's tail: a small FILTERed stream meets two
		// 126-row constant-object patterns on ?p. The first exchanges,
		// the second finds the stream placed. Each ?p comes twice.
		{"inner-query shape", `SELECT ?c ?p WHERE { ?c x:inhibits ?p . ?c x:ic50 ?x . FILTER(?x > 5) ?p x:reviewed "true" . ?p x:type x:Protein . }`, 2, 1},
		{"placed stream probes again", `SELECT ?p ?n WHERE { VALUES ?p { x:p0 x:p3 x:p6 x:p7 x:p9 x:p12 } ?p x:reviewed "false" . ?p x:name ?n . }`, 2, 1},
		{"duplicate ?v", `SELECT ?p ?n WHERE { VALUES ?p { x:p7 x:p7 x:p14 } ?p x:name ?n . }`, 1, 1},
		// An unbound key agrees only with unbound: the UNDEF row drops,
		// as in the hash join.
		{"UNDEF ?v", `SELECT ?p ?m ?n WHERE { VALUES (?p ?m) { (x:p7 "n1") (UNDEF "n2") } ?p x:name ?n . }`, 1, 1},
		{"constant object", `SELECT ?p WHERE { VALUES ?p { x:p0 x:p1 x:p2 x:p4 x:p5 x:p8 x:p10 x:p11 } ?p x:reviewed "true" . }`, 1, 1},
		// The body's join is an inner join and probes; the OPTIONAL's
		// left join stays a hash join.
		{"probe in an OPTIONAL body", `SELECT ?c ?p ?q ?n WHERE { ?c x:inhibits ?p . OPTIONAL { ?p x:links ?q . ?q x:name ?n . } }`, 1, 1},
		{"object variable stays hashed", `SELECT ?c ?p WHERE { VALUES ?p { x:p7 x:p14 } ?c x:inhibits ?p . }`, 0, 0},
		{"second shared variable stays hashed", `SELECT ?p ?n WHERE { VALUES (?p ?n) { (x:p7 "n7") (x:p8 "n1") } ?p x:name ?n . }`, 0, 0},
		{"large stream stays hashed", `SELECT ?p WHERE { ?p x:type x:Protein . ?p x:reviewed "true" . }`, 0, 0},
	}
	for ranks := 1; ranks <= 4; ranks++ {
		e, err := NewEngine(probeGraph(ranks), mpp.Topology{Nodes: 1, RanksPerNode: ranks})
		if err != nil {
			t.Fatal(err)
		}
		w := refWorld(e)
		for _, c := range cases {
			q := pre + c.q
			res, err := e.QueryTraced(q)
			if err != nil {
				t.Fatalf("ranks=%d %s: %v", ranks, c.name, err)
			}
			parsed, err := sparql.Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := w.Eval(parsed)
			if err != nil {
				t.Fatalf("ranks=%d %s: the reference rejects it: %v", ranks, c.name, err)
			}
			if diff := want.Diff(res.Vars, e.Strings(res)); diff != "" {
				t.Errorf("ranks=%d %s: %s", ranks, c.name, diff)
			}
			probes, exchanges := 0, 0
			for _, op := range res.Trace.Ops {
				probes += strings.Count(op.Note, "probe ?")
				exchanges += strings.Count(op.Note, "exchange, ")
			}
			if probes != c.probes || exchanges != c.exchanges {
				t.Errorf("ranks=%d %s: %d probes, %d after an exchange; want %d, %d\n%s",
					ranks, c.name, probes, exchanges, c.probes, c.exchanges, res.Plan.Explain())
			}
		}
	}
}
