// Package molgen is the molecule-generation substrate standing in for
// MolGAN in the paper's "what-could-be" queries. It generates valid,
// drug-like SMILES strings from a seeded fragment grammar: ring
// scaffolds with substitution points are combined with branched
// aliphatic chains and hetero-atom substituents. Every emitted SMILES
// parses with the chem package (enforced at generation time).
package molgen

import (
	"math/rand"
	"strings"

	"ids/internal/chem"
)

// scaffold templates; each '*' is a substitution point.
var scaffolds = []string{
	"c1ccccc1",       // benzene
	"c1ccc(*)cc1",    // para-substituted benzene
	"c1ccncc1",       // pyridine
	"c1cc(*)ncc1",    // substituted pyridine
	"C1CCCCC1",       // cyclohexane
	"C1CCNCC1",       // piperidine
	"C1CCOCC1",       // tetrahydropyran
	"c1ccc2ccccc2c1", // naphthalene
	"c1ccoc1",        // furan
	"c1ccsc1",        // thiophene
	"c1cc[nH]c1",     // pyrrole
}

// chain atoms with weights favoring carbon.
var chainAtoms = []string{"C", "C", "C", "C", "N", "O", "C", "S"}

// terminal substituents.
var terminals = []string{"F", "Cl", "Br", "O", "N", "C", "C(=O)O", "C#N", "C(=O)N"}

// Generator produces molecules deterministically from its seed.
type Generator struct {
	rng *rand.Rand
}

// New returns a generator seeded with seed.
func New(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed))}
}

// Generate returns n valid SMILES strings. Generation is rejection-
// sampled against the SMILES parser, so every result is parseable.
func (g *Generator) Generate(n int) []string {
	out := make([]string, 0, n)
	for len(out) < n {
		s := g.molecule()
		if _, err := chem.ParseSMILES(s); err != nil {
			continue // grammar bug guard; should be rare
		}
		out = append(out, s)
	}
	return out
}

// molecule emits one candidate SMILES.
func (g *Generator) molecule() string {
	switch g.rng.Intn(4) {
	case 0:
		return g.chain(g.rng.Intn(6) + 2)
	default:
		sc := scaffolds[g.rng.Intn(len(scaffolds))]
		return g.fillScaffold(sc)
	}
}

// fillScaffold replaces each '*' with a chain or terminal and may
// append a tail chain.
func (g *Generator) fillScaffold(sc string) string {
	var sb strings.Builder
	for i := 0; i < len(sc); i++ {
		if sc[i] == '*' {
			sb.WriteString(g.substituent())
		} else {
			sb.WriteByte(sc[i])
		}
	}
	s := sb.String()
	if g.rng.Intn(2) == 0 {
		s += g.chain(g.rng.Intn(4) + 1)
	}
	return s
}

// substituent is a short group used at scaffold substitution points.
func (g *Generator) substituent() string {
	if g.rng.Intn(3) == 0 {
		return terminals[g.rng.Intn(len(terminals))]
	}
	return g.chain(g.rng.Intn(3) + 1)
}

// chain emits a branched aliphatic chain of the given heavy-atom
// budget; the final atom may be a terminal group.
func (g *Generator) chain(budget int) string {
	var sb strings.Builder
	for i := 0; i < budget; i++ {
		if i == budget-1 && g.rng.Intn(3) == 0 {
			sb.WriteString(terminals[g.rng.Intn(len(terminals))])
			return sb.String()
		}
		sb.WriteString(chainAtoms[g.rng.Intn(len(chainAtoms))])
		if budget-i > 1 && g.rng.Intn(4) == 0 {
			sb.WriteString("(")
			sb.WriteString(g.chain(1))
			sb.WriteString(")")
		}
		if budget-i > 1 && g.rng.Intn(6) == 0 {
			sb.WriteString("=")
			// A double bond must be followed by a carbon to keep
			// valence simple.
			sb.WriteString("C")
			i++
		}
	}
	return sb.String()
}

// Mutate returns a variant of the given SMILES: the original with an
// extra substituent chain appended (the cheapest structurally valid
// mutation). Used to model iterative candidate refinement.
func (g *Generator) Mutate(smiles string) string {
	s := smiles + g.chain(g.rng.Intn(2)+1)
	if _, err := chem.ParseSMILES(s); err != nil {
		return smiles
	}
	return s
}
