package core

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/xmlkey"
)

// This file records where each FD of a minimum cover comes from, as
// Example 5.1 narrates it: "the key for the section node consists of the
// key of its chapter ancestor as well as a key for section relative to
// it". The record is taken while minimumCover builds its candidates
// (coverCandidates with a non-nil provenance), so each chain is the run
// that built the transitive key, not a second search beside it.

// AnnotatedFD pairs a cover FD with its provenance: the table-tree node
// whose transitive key forms the left-hand side, the chain of Σ keys that
// built that transitive key (one per keyed step, root first), and the
// uniqueness key that pins the right-hand side.
type AnnotatedFD struct {
	FD rel.FD
	// Node is the table-tree variable the LHS identifies.
	Node string
	// Chain lists the names (or renderings) of the Σ keys used, outermost
	// context first.
	Chain []string
	// Unique is the implication query establishing the RHS variable unique
	// under Node (rendered as a key).
	Unique string
}

// Format renders the annotation in a readable block.
func (a AnnotatedFD) Format(s *rel.Schema) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", a.FD.Format(s))
	fmt.Fprintf(&b, "    identifies table-tree node %s via: %s\n", a.Node, strings.Join(a.Chain, " , "))
	fmt.Fprintf(&b, "    RHS unique under %s: %s\n", a.Node, a.Unique)
	return b.String()
}

// keyRef renders a Σ key by name when it has one.
func keyRef(k xmlkey.Key) string {
	if k.Name != "" {
		return k.Name
	}
	return k.String()
}

// AnnotatedCover computes the minimum cover and, for each member FD, the
// provenance recorded while its candidates were built: the first node in
// table order that has the FD's LHS as a transitive key and its RHS
// variable unique under it, with the first chain that built that key.
// The cover is the engine's cached one (CachedCoverCtx), built from the
// recorded candidates when the cache is empty, so a caller that wants
// both asks CachedCoverCtx afterwards and pays for one build.
// Under a context that is cancelled, or whose budget runs out, it returns
// (nil, err). A nil ctx runs unbudgeted.
func (e *Engine) AnnotatedCover(ctx context.Context) ([]AnnotatedFD, error) {
	p := &provenance{
		e:      e,
		names:  e.rule.Vars(),
		single: make([]*xmlkey.Decider, len(e.Sigma())),
		chains: make([][]keyChain, len(e.paths.vars)),
	}
	p.chains[0] = []keyChain{{}}
	cover, _, err := e.minCoverCached(ctx, p)
	if err != nil {
		return nil, err
	}
	out := make([]AnnotatedFD, 0, len(cover))
	for _, fd := range cover {
		out = append(out, p.annotate(fd))
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].FD, out[j].FD
		if ac, bc := a.Lhs.Card(), b.Lhs.Card(); ac != bc {
			return ac < bc
		}
		return a.Format(e.rule.Schema) < b.Format(e.rule.Schema)
	})
	return out, nil
}

// provenance is coverCandidates' recorder. For each variable it keeps
// one chain of Σ keys per transitive key, the first one built; it also
// keeps the emission steps, whose uniqueness decisions pin each RHS.
type provenance struct {
	e      *Engine
	names  []string          // variable names in path-table order
	single []*xmlkey.Decider // σ alone, per σ, built on first use
	chains [][]keyChain
	emits  []emitStep
	seen   keySet
}

// keyChain is one transitive key with the chain of steps that built it.
type keyChain struct {
	key   rel.AttrSet
	chain []string
}

// record derives v's chains from the decided steps of its merge: one
// block per keyed ancestor c, c's uniqueness step first, then its list
// steps. A decided uniqueness step extends c's chains with "(v unique
// under c)". Each σ in Σ order whose list step is decided extends them
// with σ's label, if σ alone implies the step: keys that share an
// attribute list ask the full-Σ decider the same query, so this keeps
// every label honest. Keys are kept in the order built, first chain per
// key.
func (p *provenance) record(ctx context.Context, v int, steps []keyStep) error {
	sigma, lists := p.e.Sigma(), p.e.dec.KeyAttrLists()
	var out []keyChain
	p.seen.reset()
	extend := func(from []keyChain, fields rel.AttrSet, label string) {
		for _, kc := range from {
			if k := kc.key.Union(fields); p.seen.add(k) {
				out = append(out, keyChain{k, append(slices.Clip(kc.chain), label)})
			}
		}
	}
	for len(steps) > 0 {
		c, n := steps[0].c, 1
		for n < len(steps) && steps[n].c == c {
			n++
		}
		unique, block := steps[0].ok, steps[1:n]
		steps = steps[n:]
		from := p.chains[c]
		if len(from) == 0 {
			continue
		}
		if unique {
			extend(from, rel.AttrSet{}, fmt.Sprintf("(%s unique under %s)", p.names[v], p.names[c]))
		}
		relPath, _ := p.e.rule.PathBetween(p.names[c], p.names[v]) // c is an ancestor of v
		for si, sig := range sigma {
			i := slices.IndexFunc(block, func(st keyStep) bool { return slices.Equal(lists[st.list].Names(), sig.Attrs) })
			if i < 0 || !block[i].ok {
				continue
			}
			if p.single[si] == nil {
				p.single[si] = xmlkey.NewDecider([]xmlkey.Key{sig})
			}
			alone, err := p.single[si].ImpliesCTCtx(ctx, p.e.paths.vars[c].root, relPath, sig.Attrs)
			if err != nil {
				return err
			}
			if alone {
				extend(from, block[i].fields, keyRef(sig))
			}
		}
	}
	p.chains[v] = out
	return nil
}

// annotate finds fd's provenance: the first emission step for fd's RHS,
// in table order, whose RHS variable is unique under a node that has
// fd's LHS among its recorded keys. An FD that Minimize reduced to no
// node's key keeps an empty annotation.
func (p *provenance) annotate(fd rel.FD) AnnotatedFD {
	rule := p.e.rule
	for _, st := range p.emits {
		if !st.ok || !fd.Rhs.Has(rule.Schema.Index(rule.Fields[st.fr].Field)) {
			continue
		}
		i := slices.IndexFunc(p.chains[st.v], func(kc keyChain) bool { return kc.key.Equal(fd.Lhs) })
		if i < 0 {
			continue
		}
		chain := slices.Clone(p.chains[st.v][i].chain)
		if len(chain) == 0 {
			chain = []string{"(ε-rule: the document root)"}
		}
		node := p.names[st.v]
		uniq, _ := rule.PathBetween(node, p.names[st.u]) // emits stage u under v only
		return AnnotatedFD{FD: fd, Node: node, Chain: chain, Unique: xmlkey.New("", p.e.paths.vars[st.v].root, uniq).String()}
	}
	return AnnotatedFD{FD: fd}
}
