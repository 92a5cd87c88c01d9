package core

import (
	"fmt"
	"sort"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
)

// AnnotatedFD pairs a cover FD with its provenance: the table-tree node
// whose transitive key forms the left-hand side, the chain of Σ keys that
// built that transitive key (one per keyed step, root first), and the
// uniqueness key that pins the right-hand side. This is Example 5.1 made
// explicit: "the key for the section node consists of the key of its
// chapter ancestor as well as a key for section relative to it".
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

// AnnotatedCover computes the minimum cover and, for each member FD,
// reconstructs one provenance: the keyed chain producing its LHS and the
// uniqueness fact for its RHS. FDs whose provenance spans equivalent
// alternate keys report the first chain found (deterministically).
func (e *Engine) AnnotatedCover() []AnnotatedFD {
	cover := e.MinimumCover()
	out := make([]AnnotatedFD, 0, len(cover))
	for _, fd := range cover {
		ann := AnnotatedFD{FD: fd}
		if node, chain, uniq, ok := e.findProvenance(fd); ok {
			ann.Node, ann.Chain, ann.Unique = node, chain, uniq
		}
		out = append(out, ann)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].FD, out[j].FD
		if ac, bc := a.Lhs.Card(), b.Lhs.Card(); ac != bc {
			return ac < bc
		}
		return a.Format(e.rule.Schema) < b.Format(e.rule.Schema)
	})
	return out
}

// findProvenance searches the table tree for a node v whose transitive key
// matches fd's LHS and under which fd's RHS variable is unique, recording
// the Σ keys used at each keyed step.
func (e *Engine) findProvenance(fd rel.FD) (node string, chain []string, unique string, ok bool) {
	rule := e.rule
	schema := rule.Schema
	rhsField := ""
	fd.Rhs.ForEach(func(i int) { rhsField = schema.Attrs[i] })
	u, hasVar := rule.VarOf(rhsField)
	if !hasVar {
		return "", nil, "", false
	}

	states := map[string][]provState{transform.RootVar: {{key: rel.AttrSet{}}}}
	order := []string{transform.RootVar}
	for _, v := range rule.Vars() {
		if v == transform.RootVar {
			continue
		}
		var vStates []provState
		for _, c := range rule.Ancestors(v) {
			cStates := states[c]
			if len(cStates) == 0 {
				continue
			}
			ctxPath := e.pathFromRoot(c)
			relPath, okPath := rule.PathBetween(c, v)
			if !okPath {
				continue // defensive: see propagatesOne on zero-value paths
			}
			if e.dec.ImpliesCT(ctxPath, relPath, nil) {
				for _, st := range cStates {
					vStates = append(vStates, provState{
						key:   st.key,
						chain: append(append([]string(nil), st.chain...), fmt.Sprintf("(%s unique under %s)", v, c)),
					})
				}
			}
			for _, sig := range e.Sigma() {
				if len(sig.Attrs) == 0 {
					continue
				}
				fields, okF := e.fieldsOf(e.paths.index[v], sig.Attrs)
				if !okF || !fields.SubsetOf(fd.Lhs) {
					continue
				}
				// The label must be honest: sig alone has to justify the
				// step (two keys may share an attribute set, and the full-Σ
				// decider would then prove the query via the other one).
				if !xmlkey.Implies([]xmlkey.Key{sig}, xmlkey.New("", ctxPath, relPath, sig.Attrs...)) {
					continue
				}
				if !e.dec.ExistsAllID(e.rootID(v), sig.Attrs) {
					continue
				}
				for _, st := range cStates {
					vStates = append(vStates, provState{
						key:   st.key.Union(fields),
						chain: append(append([]string(nil), st.chain...), keyRef(sig)),
					})
				}
			}
		}
		if len(vStates) > 0 {
			states[v] = dedupStates(vStates)
			order = append(order, v)
		}
	}

	for _, v := range order {
		for _, st := range states[v] {
			if !st.key.Equal(fd.Lhs) {
				continue
			}
			if v != u && !rule.IsDescendant(u, v) {
				continue
			}
			uniqPath, okP := rule.PathBetween(v, u)
			if !okP {
				continue
			}
			q := xmlkey.New("", e.pathFromRoot(v), uniqPath)
			if !e.dec.Implies(q) {
				continue
			}
			chain := st.chain
			if len(chain) == 0 {
				chain = []string{"(ε-rule: the document root)"}
			}
			return v, chain, q.String(), true
		}
	}
	return "", nil, "", false
}

// provState is one transitive-key candidate during provenance search.
type provState struct {
	key   rel.AttrSet
	chain []string
}

func dedupStates(in []provState) []provState {
	seen := map[string]bool{}
	out := in[:0]
	for _, st := range in {
		k := fmt.Sprintf("%v", st.key.Positions())
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, st)
	}
	return out
}
