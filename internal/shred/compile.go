// Package shred is the streaming XML→relational data plane: one pass
// over xmltok's zero-copy token stream evaluates a compiled Def 2.2
// transformation incrementally (no xmltree materialization on the hot
// path) and, as each block of bindings closes, enumerates the block's
// null-subtree Cartesian product row by row on the same goroutine — no
// block's rows are ever materialized — deduplicating, writing distinct
// tuples to the sink in batches, and enforcing the propagated minimum
// cover online through per-FD hash indexes. The analysis plane (core, xmlkey) proves that the propagated
// FDs hold on every instance shredded from a valid document; this
// package is where that guarantee meets real data — a violated FD
// surfaces as a typed FDViolation carrying the conflicting tuples, their
// byte offsets and lineage back to the source nodes.
//
// Matching of rule paths reuses internal/stream's interned-label PathNFA
// machinery: every variable mapping compiles to a position-set NFA pushed
// along the open-element stack, exactly as the key validator matches
// context and target paths, so both planes agree on path semantics by
// construction.
package shred

import (
	"fmt"

	"xkprop/internal/stream"
	"xkprop/internal/transform"
	"xkprop/internal/xpath"
)

// Compiled is a transformation compiled for streaming evaluation. It is
// immutable after Compile and safe for concurrent Run calls.
type Compiled struct {
	tr    *transform.Transformation
	in    *xpath.Interner
	rules []*crule
}

// Transformation returns the source transformation.
func (c *Compiled) Transformation() *transform.Transformation { return c.tr }

// crule is one table rule compiled against the shared interner.
type crule struct {
	ri    int
	rule  *transform.Rule
	vars  []*cvar // topo order; vars[0] is the root variable
	width int     // len(schema.Attrs)
	// streamable: the root has exactly one child variable, so every tuple
	// block completes when one binding of that child closes — blocks are
	// emitted mid-document and their memory released. Rules with several
	// root children need the full cross product of their blocks and are
	// expanded when the document root closes (see evaluator.finish).
	streamable bool
	// blockVars lists the variables of a block's product in depth-first
	// slot order, from the block's own variable (the root's sole child
	// for streamable rules, the root otherwise); blockParent[i] is the
	// position of blockVars[i]'s parent, -1 for position 0. The order is
	// the order of a row's lineage refs and of the product's odometer
	// digits (see product).
	blockVars   []*cvar
	blockParent []int
}

// cvar is one compiled variable of a rule.
type cvar struct {
	ri       int // owning rule index
	idx      int // index into crule.vars
	name     string
	parent   int // parent variable index, -1 for the root
	slot     int // position within the parent's children
	children []int
	// elem is the element part of the mapping path (attribute step
	// stripped), compiled against the shared interner. The zero PathNFA is
	// ε, accepted immediately — an attribute read off the anchor element.
	elem stream.PathNFA
	// attr is the attribute name for attribute-final mappings ("" for
	// element variables).
	attr string
	// fieldCol is the schema column this variable populates, -1 if none.
	fieldCol int
	// needsText: element variable populating a field — its binding collects
	// the subtree's text content while open.
	needsText bool
}

// Compile compiles every rule of the transformation against one shared
// interner, so one label-code lookup per start tag serves all rules.
func Compile(tr *transform.Transformation) (*Compiled, error) {
	if tr == nil || len(tr.Rules) == 0 {
		return nil, fmt.Errorf("shred: empty transformation")
	}
	c := &Compiled{tr: tr, in: xpath.NewInterner()}
	for ri, rule := range tr.Rules {
		cr, err := compileRule(ri, rule, c.in)
		if err != nil {
			return nil, err
		}
		c.rules = append(c.rules, cr)
	}
	return c, nil
}

func compileRule(ri int, rule *transform.Rule, in *xpath.Interner) (*crule, error) {
	cr := &crule{ri: ri, rule: rule, width: rule.Schema.Len()}
	index := map[string]int{}
	for _, name := range rule.Vars() {
		cv := &cvar{ri: ri, idx: len(cr.vars), name: name, parent: -1, fieldCol: -1}
		if name != transform.RootVar {
			m, ok := rule.Mapping(name)
			if !ok {
				return nil, fmt.Errorf("shred: rule %s: variable %s has no mapping", rule.Schema.Name, name)
			}
			pi, ok := index[m.Src]
			if !ok {
				return nil, fmt.Errorf("shred: rule %s: variable %s defined before its source %s", rule.Schema.Name, name, m.Src)
			}
			cv.parent = pi
			p := m.Path
			if name, ok := p.AttributeName(); ok {
				cv.attr = name
				p = p.StripAttribute()
			}
			cv.elem = stream.CompilePath(in, p)
			parent := cr.vars[pi]
			cv.slot = len(parent.children)
			parent.children = append(parent.children, cv.idx)
		}
		if f, ok := rule.FieldOf(name); ok {
			cv.fieldCol = rule.Schema.Index(f)
		}
		cv.needsText = cv.attr == "" && cv.fieldCol >= 0
		index[name] = cv.idx
		cr.vars = append(cr.vars, cv)
	}
	cr.streamable = len(cr.vars[0].children) == 1
	top := cr.vars[0]
	if cr.streamable {
		top = cr.vars[top.children[0]]
	}
	var walk func(cv *cvar, parent int)
	walk = func(cv *cvar, parent int) {
		pos := len(cr.blockVars)
		cr.blockVars = append(cr.blockVars, cv)
		cr.blockParent = append(cr.blockParent, parent)
		for _, ci := range cv.children {
			walk(cr.vars[ci], pos)
		}
	}
	walk(top, -1)
	return cr, nil
}
