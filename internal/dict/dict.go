// Package dict implements the parallel dictionary encoder at the base
// of the IDS datastore. RDF terms (IRIs, literals, blank nodes) are
// mapped to dense uint64 IDs so that triples, join keys and
// intermediate solutions move through the engine as fixed-width
// integers — the same design the Cray Graph Engine uses to keep its
// in-memory representation compact and its joins hash-friendly.
//
// The dictionary is sharded by term hash so concurrent ingest ranks
// can encode without a global lock.
package dict

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// ID is a dictionary-encoded term identifier. 0 is reserved and never
// assigned ("no term").
type ID uint64

// None is the zero ID, never assigned to a term.
const None ID = 0

// Kind classifies an RDF term.
type Kind uint8

// Term kinds.
const (
	IRI Kind = iota
	Literal
	Blank
)

func (k Kind) String() string {
	switch k {
	case IRI:
		return "iri"
	case Literal:
		return "literal"
	case Blank:
		return "blank"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Term is a decoded RDF term.
type Term struct {
	Kind Kind
	// Value holds the lexical form: the IRI without angle brackets,
	// the literal's string value, or the blank node label.
	Value string
	// Datatype holds the literal datatype IRI, if any.
	Datatype string
}

// String renders the term in N-Triples syntax — the engine's display
// form (see AppendString).
func (t Term) String() string { return string(t.AppendString(nil)) }

// key is the canonical uniqueness key of a term.
func (t Term) key() string {
	switch t.Kind {
	case IRI:
		return "i" + t.Value
	case Blank:
		return "b" + t.Value
	default:
		return "l" + t.Datatype + "\x00" + t.Value
	}
}

const numShards = 64

type shard struct {
	mu  sync.RWMutex
	ids map[string]ID
}

// Dict is a concurrency-safe two-way dictionary between terms and IDs.
type Dict struct {
	shards [numShards]shard

	mu    sync.RWMutex
	terms []Term // terms[id-1] is the term for id
}

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{}
	for i := range d.shards {
		d.shards[i].ids = map[string]ID{}
	}
	return d
}

func shardOf(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() % numShards
}

// Encode returns the ID for term, assigning a fresh one if the term is
// new. Safe for concurrent use.
func (d *Dict) Encode(t Term) ID {
	key := t.key()
	s := &d.shards[shardOf(key)]

	s.mu.RLock()
	id, ok := s.ids[key]
	s.mu.RUnlock()
	if ok {
		return id
	}

	// Allocate the global slot first, then publish in the shard.
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok = s.ids[key]; ok {
		return id
	}
	d.mu.Lock()
	d.terms = append(d.terms, t)
	id = ID(len(d.terms))
	d.mu.Unlock()
	s.ids[key] = id
	return id
}

// Lookup returns the ID already assigned to term, or (None, false).
func (d *Dict) Lookup(t Term) (ID, bool) {
	key := t.key()
	s := &d.shards[shardOf(key)]
	s.mu.RLock()
	id, ok := s.ids[key]
	s.mu.RUnlock()
	return id, ok
}

// LookupIRI returns the ID of an IRI term if present.
func (d *Dict) LookupIRI(iri string) (ID, bool) {
	return d.Lookup(Term{Kind: IRI, Value: iri})
}

// Decode returns the term for id. The second result is false for None
// or out-of-range IDs.
func (d *Dict) Decode(id ID) (Term, bool) { return d.Snapshot().Decode(id) }

// MustDecode is Decode that panics on unknown IDs; for internal
// invariant checks and tests.
func (d *Dict) MustDecode(id ID) Term {
	t, ok := d.Decode(id)
	if !ok {
		panic(fmt.Sprintf("dict: unknown id %d", id))
	}
	return t
}

// Terms is a read-only view of the terms assigned when it was taken,
// decoded without the dictionary lock. The dictionary is append-only:
// a later Encode writes past the view's end or into a fresh array,
// never into what the view covers.
type Terms []Term

// Snapshot returns the view of every term assigned so far, taking the
// dictionary read lock once — for callers that decode a whole result.
func (d *Dict) Snapshot() Terms {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.terms
}

// Decode returns the term for id; false for None and for IDs assigned
// after the snapshot.
func (ts Terms) Decode(id ID) (Term, bool) {
	if id == None || uint64(id) > uint64(len(ts)) {
		return Term{}, false
	}
	return ts[id-1], true
}

// Len returns the number of distinct terms stored.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.terms)
}
