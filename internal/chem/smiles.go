// Package chem provides the small-molecule substrate of the NCNPR
// workflow: a SMILES parser producing molecular graphs, with the
// implicit-hydrogen and rotatable-bond counts docking reads.
package chem

import (
	"fmt"
	"strings"
)

// Atom is one node of a molecular graph.
type Atom struct {
	Element  string // element symbol, e.g. "C", "Cl"
	Aromatic bool
	// ExplicitH is the hydrogen count given in a bracket atom, or -1
	// when hydrogens are implicit.
	ExplicitH int
}

// Bond connects two atoms by index.
type Bond struct {
	A, B     int
	Order    int // 1, 2, 3
	Aromatic bool
}

// Mol is a parsed molecule.
type Mol struct {
	Atoms []Atom
	Bonds []Bond
	// SMILES is the input string the molecule was parsed from.
	SMILES string

	adj [][]int // adjacency: atom index -> bond indexes
}

// Neighbors returns the bond indexes incident to atom i.
func (m *Mol) Neighbors(i int) []int { return m.adj[i] }

// Other returns the atom at the far end of bond b from atom i.
func (m *Mol) Other(b Bond, i int) int {
	if b.A == i {
		return b.B
	}
	return b.A
}

// organic subset symbols allowed without brackets.
var organicSubset = map[string]bool{
	"B": true, "C": true, "N": true, "O": true, "P": true, "S": true,
	"F": true, "Cl": true, "Br": true, "I": true,
}

var aromaticSubset = map[byte]string{
	'b': "B", 'c': "C", 'n': "N", 'o': "O", 'p': "P", 's': "S",
}

// ParseSMILES parses a subset of the SMILES grammar: organic-subset
// atoms, bracket atoms with isotope/charge/H-count, single/double/
// triple/aromatic bonds, branches, and one- or two-digit ring-closure
// labels (%nn). Stereo markers (/ \ @) are accepted and ignored.
func ParseSMILES(s string) (*Mol, error) {
	p := &smilesParser{in: s, mol: &Mol{SMILES: s}, rings: map[int]ringOpen{}}
	if err := p.parse(); err != nil {
		return nil, fmt.Errorf("chem: parsing %q: %w", s, err)
	}
	m := p.mol
	m.adj = make([][]int, len(m.Atoms))
	for bi, b := range m.Bonds {
		m.adj[b.A] = append(m.adj[b.A], bi)
		m.adj[b.B] = append(m.adj[b.B], bi)
	}
	return m, nil
}

type ringOpen struct {
	atom  int
	order int
}

type smilesParser struct {
	in    string
	pos   int
	mol   *Mol
	prev  int // index of atom to bond the next atom to; -1 at start
	stack []int
	rings map[int]ringOpen
	// pending bond order for the next atom/ring closure (0 = default)
	bondOrder int
	started   bool
}

func (p *smilesParser) parse() error {
	p.prev = -1
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		switch {
		case c == '(':
			if p.prev < 0 {
				return fmt.Errorf("branch before any atom at %d", p.pos)
			}
			p.stack = append(p.stack, p.prev)
			p.pos++
		case c == ')':
			if len(p.stack) == 0 {
				return fmt.Errorf("unmatched ')' at %d", p.pos)
			}
			p.prev = p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.pos++
		case c == '-':
			p.bondOrder = 1
			p.pos++
		case c == '=':
			p.bondOrder = 2
			p.pos++
		case c == '#':
			p.bondOrder = 3
			p.pos++
		case c == ':':
			p.bondOrder = 4 // aromatic
			p.pos++
		case c == '/' || c == '\\':
			p.bondOrder = 1 // stereo bonds treated as single
			p.pos++
		case c == '.':
			p.prev = -1
			p.bondOrder = 0
			p.pos++
		case c >= '0' && c <= '9':
			if err := p.ringClosure(int(c - '0')); err != nil {
				return err
			}
			p.pos++
		case c == '%':
			if p.pos+2 >= len(p.in) || !isDigit(p.in[p.pos+1]) || !isDigit(p.in[p.pos+2]) {
				return fmt.Errorf("bad %%nn ring label at %d", p.pos)
			}
			n := int(p.in[p.pos+1]-'0')*10 + int(p.in[p.pos+2]-'0')
			if err := p.ringClosure(n); err != nil {
				return err
			}
			p.pos += 3
		case c == '[':
			if err := p.bracketAtom(); err != nil {
				return err
			}
		default:
			if err := p.organicAtom(); err != nil {
				return err
			}
		}
	}
	if len(p.stack) != 0 {
		return fmt.Errorf("unclosed branch")
	}
	if len(p.rings) != 0 {
		return fmt.Errorf("unclosed ring bond")
	}
	if len(p.mol.Atoms) == 0 {
		return fmt.Errorf("no atoms")
	}
	return nil
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func (p *smilesParser) addAtom(a Atom) {
	p.mol.Atoms = append(p.mol.Atoms, a)
	idx := len(p.mol.Atoms) - 1
	if p.prev >= 0 {
		p.addBond(p.prev, idx)
	}
	p.prev = idx
	p.bondOrder = 0
}

func (p *smilesParser) addBond(a, b int) {
	order := p.bondOrder
	aromatic := false
	if order == 4 {
		aromatic = true
		order = 1
	}
	if order == 0 {
		// Default bond: aromatic if both atoms are aromatic, else single.
		if p.mol.Atoms[a].Aromatic && p.mol.Atoms[b].Aromatic {
			aromatic = true
		}
		order = 1
	}
	p.mol.Bonds = append(p.mol.Bonds, Bond{A: a, B: b, Order: order, Aromatic: aromatic})
}

func (p *smilesParser) ringClosure(label int) error {
	if p.prev < 0 {
		return fmt.Errorf("ring label before any atom at %d", p.pos)
	}
	if open, ok := p.rings[label]; ok {
		if open.atom == p.prev {
			return fmt.Errorf("ring bond to self at %d", p.pos)
		}
		order := p.bondOrder
		if order == 0 {
			order = open.order
		}
		saved := p.bondOrder
		p.bondOrder = order
		p.addBond(open.atom, p.prev)
		p.bondOrder = saved
		delete(p.rings, label)
	} else {
		p.rings[label] = ringOpen{atom: p.prev, order: p.bondOrder}
	}
	p.bondOrder = 0
	return nil
}

func (p *smilesParser) organicAtom() error {
	c := p.in[p.pos]
	// Two-letter halogens.
	if c == 'C' && p.pos+1 < len(p.in) && p.in[p.pos+1] == 'l' {
		p.addAtom(Atom{Element: "Cl", ExplicitH: -1})
		p.pos += 2
		return nil
	}
	if c == 'B' && p.pos+1 < len(p.in) && p.in[p.pos+1] == 'r' {
		p.addAtom(Atom{Element: "Br", ExplicitH: -1})
		p.pos += 2
		return nil
	}
	if sym, ok := aromaticSubset[c]; ok {
		p.addAtom(Atom{Element: sym, Aromatic: true, ExplicitH: -1})
		p.pos++
		return nil
	}
	sym := string(c)
	if organicSubset[sym] {
		p.addAtom(Atom{Element: sym, ExplicitH: -1})
		p.pos++
		return nil
	}
	return fmt.Errorf("unexpected character %q at %d", c, p.pos)
}

func (p *smilesParser) bracketAtom() error {
	end := strings.IndexByte(p.in[p.pos:], ']')
	if end < 0 {
		return fmt.Errorf("unclosed bracket at %d", p.pos)
	}
	body := p.in[p.pos+1 : p.pos+end]
	p.pos += end + 1
	a := Atom{ExplicitH: 0}
	i := 0
	// Isotope: parsed past, not kept, like the charge below.
	for i < len(body) && isDigit(body[i]) {
		i++
	}
	if i >= len(body) {
		return fmt.Errorf("bracket atom missing element")
	}
	// Element symbol: aromatic lower-case subset, or a capital letter
	// optionally followed by one lower-case letter.
	if sym, ok := aromaticSubset[body[i]]; ok {
		a.Element = sym
		a.Aromatic = true
		i++
	} else {
		if body[i] < 'A' || body[i] > 'Z' {
			return fmt.Errorf("bad element in bracket atom %q", body)
		}
		sym := string(body[i])
		i++
		if i < len(body) && body[i] >= 'a' && body[i] <= 'z' {
			sym += string(body[i])
			i++
		}
		a.Element = sym
	}
	// Chirality markers ignored.
	for i < len(body) && body[i] == '@' {
		i++
	}
	// Hydrogen count (capital H only; lower-case h never follows a
	// complete element symbol in this subset).
	if i < len(body) && body[i] == 'H' {
		i++
		a.ExplicitH = 1
		if i < len(body) && isDigit(body[i]) {
			a.ExplicitH = int(body[i] - '0')
			i++
		}
	}
	// Charge: parsed past, not kept (docking reads no charge).
	for i < len(body) && (body[i] == '+' || body[i] == '-') {
		i++
		if i < len(body) && isDigit(body[i]) {
			i++
		}
	}
	if i != len(body) {
		return fmt.Errorf("trailing %q in bracket atom", body[i:])
	}
	p.addAtom(a)
	return nil
}
