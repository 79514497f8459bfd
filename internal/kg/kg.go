// Package kg assembles the dictionary and the per-rank triple shards
// into the IDS knowledge-graph datastore. Triples are hash-partitioned
// by subject across shards (one shard per MPP rank), mirroring how the
// Cray Graph Engine distributes its in-memory database, and can be
// bulk-loaded from N-Triples text.
package kg

import (
	"bufio"
	"fmt"
	"io"
	"strings"
	"sync"

	"ids/internal/dict"
	"ids/internal/triple"
)

// Graph is a partitioned knowledge graph.
type Graph struct {
	Dict    *dict.Dict
	shards  []*triple.Store
	mu      []sync.Mutex // per-shard ingest locks
	nshards int
}

// New returns an empty graph partitioned into nshards shards.
func New(nshards int) *Graph {
	if nshards <= 0 {
		nshards = 1
	}
	g := &Graph{
		Dict:    dict.New(),
		shards:  make([]*triple.Store, nshards),
		mu:      make([]sync.Mutex, nshards),
		nshards: nshards,
	}
	for i := range g.shards {
		g.shards[i] = triple.New()
	}
	return g
}

// NumShards returns the shard count.
func (g *Graph) NumShards() int { return g.nshards }

// Shard returns shard i; the caller must not mutate it.
func (g *Graph) Shard(i int) *triple.Store { return g.shards[i] }

// shardFor routes a subject ID to its owning shard.
func (g *Graph) shardFor(s dict.ID) int {
	// Fibonacci hashing spreads sequential dictionary IDs well.
	return int((uint64(s) * 0x9e3779b97f4a7c15 >> 33) % uint64(g.nshards))
}

// ShardOf is the subject routing: every triple lives on shard
// ShardOf(its subject), whichever way it arrived (Add, Insert,
// LoadSnapshot into any shard count, WAL replay). The engine's probe
// join relies on it — a rank holding a subject's ID finds all of that
// subject's triples in its own shard — and placement_test.go pins it.
func (g *Graph) ShardOf(s dict.ID) int { return g.shardFor(s) }

// Add encodes and stores one triple. Safe for concurrent use.
func (g *Graph) Add(s, p, o dict.Term) {
	sid := g.Dict.Encode(s)
	pid := g.Dict.Encode(p)
	oid := g.Dict.Encode(o)
	g.AddEncoded(triple.Triple{S: sid, P: pid, O: oid})
}

// AddEncoded stores an already-encoded triple. Safe for concurrent use.
func (g *Graph) AddEncoded(t triple.Triple) {
	sh := g.shardFor(t.S)
	g.mu[sh].Lock()
	g.shards[sh].Add(t)
	g.mu[sh].Unlock()
}

// Insert adds a triple to a sealed graph (the update path of the
// query/update endpoint). Returns false for duplicates.
func (g *Graph) Insert(s, p, o dict.Term) bool {
	t := triple.Triple{S: g.Dict.Encode(s), P: g.Dict.Encode(p), O: g.Dict.Encode(o)}
	sh := g.shardFor(t.S)
	g.mu[sh].Lock()
	defer g.mu[sh].Unlock()
	return g.shards[sh].Insert(t)
}

// Delete removes a triple from a sealed graph, reporting whether it
// existed. Terms never seen by the dictionary cannot match.
func (g *Graph) Delete(s, p, o dict.Term) bool {
	sid, ok := g.Dict.Lookup(s)
	if !ok {
		return false
	}
	pid, ok := g.Dict.Lookup(p)
	if !ok {
		return false
	}
	oid, ok := g.Dict.Lookup(o)
	if !ok {
		return false
	}
	t := triple.Triple{S: sid, P: pid, O: oid}
	sh := g.shardFor(t.S)
	g.mu[sh].Lock()
	defer g.mu[sh].Unlock()
	return g.shards[sh].Delete(t)
}

// Seal finalizes every shard for querying.
func (g *Graph) Seal() {
	for _, sh := range g.shards {
		sh.Seal()
	}
}

// Len returns the total triple count across shards.
func (g *Graph) Len() int {
	n := 0
	for _, sh := range g.shards {
		n += sh.Len()
	}
	return n
}

// PredicateStats merges per-shard predicate counts; used by the query
// planner.
func (g *Graph) PredicateStats() map[dict.ID]int {
	out := map[dict.ID]int{}
	for _, sh := range g.shards {
		for p, n := range sh.PredicateStats() {
			out[p] += n
		}
	}
	return out
}

// LoadNTriples bulk-loads N-Triples text ("<s> <p> <o> ." per line,
// with literal and blank-node objects supported). It returns the
// number of triples loaded. Malformed lines abort the load.
func (g *Graph) LoadNTriples(r io.Reader) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	n := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := parseNTLine(line)
		if err != nil {
			return n, fmt.Errorf("kg: line %d: %w", lineNo, err)
		}
		g.Add(s, p, o)
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("kg: %w", err)
	}
	return n, nil
}

// parseNTLine parses one N-Triples statement.
func parseNTLine(line string) (s, p, o dict.Term, err error) {
	rest := line
	s, rest, err = parseNTTerm(rest)
	if err != nil {
		return
	}
	if s.Kind == dict.Literal {
		err = fmt.Errorf("literal subject")
		return
	}
	p, rest, err = parseNTTerm(rest)
	if err != nil {
		return
	}
	if p.Kind != dict.IRI {
		err = fmt.Errorf("non-IRI predicate")
		return
	}
	o, rest, err = parseNTTerm(rest)
	if err != nil {
		return
	}
	rest = strings.TrimSpace(rest)
	if rest != "." {
		err = fmt.Errorf("missing terminating '.' (got %q)", rest)
	}
	return
}

// parseNTTerm parses one term off the front of s.
func parseNTTerm(in string) (dict.Term, string, error) {
	in = strings.TrimSpace(in)
	if in == "" {
		return dict.Term{}, "", fmt.Errorf("unexpected end of statement")
	}
	switch in[0] {
	case '<':
		end := strings.IndexByte(in, '>')
		if end < 0 {
			return dict.Term{}, "", fmt.Errorf("unterminated IRI")
		}
		return dict.Term{Kind: dict.IRI, Value: in[1:end]}, in[end+1:], nil
	case '_':
		if len(in) < 2 || in[1] != ':' {
			return dict.Term{}, "", fmt.Errorf("malformed blank node")
		}
		end := 2
		for end < len(in) && in[end] != ' ' && in[end] != '\t' {
			end++
		}
		return dict.Term{Kind: dict.Blank, Value: in[2:end]}, in[end:], nil
	case '"':
		// Scan to the closing unescaped quote.
		var sb strings.Builder
		i := 1
		for i < len(in) {
			c := in[i]
			if c == '\\' && i+1 < len(in) {
				i++
				switch in[i] {
				case 'n':
					sb.WriteByte('\n')
				case 't':
					sb.WriteByte('\t')
				case '"':
					sb.WriteByte('"')
				case '\\':
					sb.WriteByte('\\')
				default:
					sb.WriteByte(in[i])
				}
				i++
				continue
			}
			if c == '"' {
				break
			}
			sb.WriteByte(c)
			i++
		}
		if i >= len(in) {
			return dict.Term{}, "", fmt.Errorf("unterminated literal")
		}
		term := dict.Term{Kind: dict.Literal, Value: sb.String()}
		rest := in[i+1:]
		// Optional datatype or language tag.
		if strings.HasPrefix(rest, "^^<") {
			end := strings.IndexByte(rest, '>')
			if end < 0 {
				return dict.Term{}, "", fmt.Errorf("unterminated datatype IRI")
			}
			term.Datatype = rest[3:end]
			rest = rest[end+1:]
		} else if strings.HasPrefix(rest, "@") {
			end := 1
			for end < len(rest) && rest[end] != ' ' && rest[end] != '\t' {
				end++
			}
			rest = rest[end:] // language tags are accepted and dropped
		}
		return term, rest, nil
	default:
		return dict.Term{}, "", fmt.Errorf("unexpected term start %q", in[0])
	}
}

// Triples calls fn with every triple of the graph, decoded, shard by
// shard, until fn returns false.
func (g *Graph) Triples(fn func(s, p, o dict.Term) bool) {
	more := true
	for _, sh := range g.shards {
		sh.Match(triple.Pattern{}, func(t triple.Triple) bool {
			more = more && fn(g.Dict.MustDecode(t.S), g.Dict.MustDecode(t.P), g.Dict.MustDecode(t.O))
			return more
		})
	}
}
