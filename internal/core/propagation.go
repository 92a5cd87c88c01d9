// Package core implements the paper's algorithms (Davidson, Fan, Hara,
// Qin — "Propagating XML Constraints to Relations", ICDE 2003):
//
//   - Algorithm propagation (§4, Fig 5): decide whether a relational FD on
//     a table rule's relation is propagated from a set Σ of XML keys;
//   - Algorithm naive (§5): the exponential baseline for minimum covers —
//     enumerate all candidate FDs, filter with propagation, minimize;
//   - Algorithm minimumCover (§5): compute a minimum cover of all FDs on a
//     universal relation propagated from Σ, in polynomial time for the key
//     sets that arise in practice;
//   - GminimumCover (§6): the alternative propagation check that first
//     computes a minimum cover and then uses relational implication.
package core

import (
	"context"
	"slices"
	"sync"

	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xpath"
)

// Engine bundles a key set Σ and a table rule, reusing the implication
// decider's memo table across the many related queries the algorithms
// issue.
//
// An Engine is safe for concurrent use: the decider shares decided
// sub-goals across goroutines, the path table is immutable once built,
// and the lazily computed cover behind GPropagates is built exactly once.
// Each call runs on its caller's goroutine.
type Engine struct {
	dec  *xmlkey.Decider
	rule *transform.Rule

	// paths is the rule's table tree with its paths interned in the
	// decider's path universe, built once by NewEngineWithDecider.
	paths pathTable

	// cover caches MinimumCover for GPropagates. Unlike a sync.Once, the
	// mutex+flag pair lets a cancelled build fail without poisoning the
	// cache: a later call with a live context can still build the cover.
	// coverIdx is the compiled FD index over the cached cover (with its
	// closure-set cache enabled), built alongside it and reused by every
	// relational query on the cover (GPropagates, candidate keys).
	coverMu    sync.Mutex
	coverBuilt bool
	cover      []rel.FD
	coverIdx   *rel.FDIndex
}

// pathTable holds the rule's variables in topological order (index 0 is
// the root) with the paths the algorithms query, interned once per
// engine: each variable's root path, and P(c, v) for each ancestor c,
// concatenated from the parent's row and v's mapping with
// Interner.ConcatIDs. An attribute variable's paths are interned without
// their trailing attribute step, which the decider's attribute-step
// reduction would strip.
type pathTable struct {
	index map[string]int
	vars  []varPaths
}

// varPaths is one variable's row of the path table.
type varPaths struct {
	root xpath.Path // P(v_r, v) as the rule writes it
	// anc lists v's ancestors from the root down, then v itself, so
	// anc[d] is v's ancestor at depth d; up[d] is the ID of P(anc[d], v).
	anc []int
	up  []xpath.ID
	// attr marks an attribute variable (its mapping ends in @a).
	attr bool
	// attrFields are v's attribute children that populate a field, as
	// (attribute name, schema index), in declaration order.
	attrFields []attrField
}

type attrField struct {
	name  string
	field int
}

func newPathTable(dec *xmlkey.Decider, rule *transform.Rule) pathTable {
	in := dec.Interner()
	eps := in.Epsilon()
	names := rule.Vars()
	pt := pathTable{index: make(map[string]int, len(names)), vars: make([]varPaths, len(names))}
	for i, v := range names {
		pt.index[v] = i
		vp := &pt.vars[i]
		m, ok := rule.Mapping(v)
		if !ok {
			vp.anc, vp.up = []int{i}, []xpath.ID{eps}
			continue
		}
		// Vars lists parents before children, so the parent's row is built.
		p := &pt.vars[pt.index[m.Src]]
		vp.root = p.root.Concat(m.Path)
		vp.attr = m.Path.HasAttribute()
		vp.anc = append(append(make([]int, 0, len(p.anc)+1), p.anc...), i)
		edge := in.Intern(m.Path.StripAttribute())
		vp.up = make([]xpath.ID, len(vp.anc))
		for d, id := range p.up {
			vp.up[d] = in.ConcatIDs(id, edge)
		}
		vp.up[len(p.up)] = eps
		if name, isAttr := m.Path.AttributeName(); isAttr && m.Path.Len() == 1 {
			if f, hasField := rule.FieldOf(v); hasField {
				p.attrFields = append(p.attrFields, attrField{name, rule.Schema.Index(f)})
			}
		}
	}
	return pt
}

// depth is v's depth in the table tree (the root's is 0).
func (pt *pathTable) depth(v int) int { return len(pt.vars[v].anc) - 1 }

// under reports whether u is v or a descendant of v.
func (pt *pathTable) under(u, v int) bool {
	d := pt.depth(v)
	return pt.depth(u) >= d && pt.vars[u].anc[d] == v
}

// between returns the ID of P(c, v) for c an ancestor of v or v itself.
func (pt *pathTable) between(c, v int) xpath.ID { return pt.vars[v].up[pt.depth(c)] }

// NewEngine builds an engine for Σ and the rule.
func NewEngine(sigma []xmlkey.Key, rule *transform.Rule) *Engine {
	return NewEngineWithDecider(xmlkey.NewDecider(sigma), rule)
}

// NewEngineWithDecider builds an engine over an existing implication
// decider, sharing its memo table, interned path universe and compiled
// containment kernel. This is the registry path: one compiled Σ serves
// every table rule of a transformation, so sub-goals decided while
// analyzing one rule warm the analyses of all the others. The decider's
// Σ is the engine's Σ.
func NewEngineWithDecider(dec *xmlkey.Decider, rule *transform.Rule) *Engine {
	return &Engine{
		dec:   dec,
		rule:  rule,
		paths: newPathTable(dec, rule),
	}
}

// Decider returns the engine's implication decider — shared state when the
// engine was built with NewEngineWithDecider. Callers use it for metrics
// (MemoSize, Interner().Size) and to build sibling engines over the same Σ.
func (e *Engine) Decider() *xmlkey.Decider { return e.dec }

// Rule returns the engine's table rule.
func (e *Engine) Rule() *transform.Rule { return e.rule }

// Sigma returns the engine's key set.
func (e *Engine) Sigma() []xmlkey.Key { return e.dec.Sigma() }

// pathFromRoot returns P(v_r, x).
func (e *Engine) pathFromRoot(x string) xpath.Path { return e.paths.vars[e.paths.index[x]].root }

// rootID returns the interned P(v_r, x) of an element variable x, the
// path the existence closure asks about.
func (e *Engine) rootID(x string) xpath.ID { return e.paths.vars[e.paths.index[x]].up[0] }

// Propagates implements Algorithm propagation (Fig 5): it reports whether
// Σ ⊨_σ (X → Y) — the FD holds on the rule's relation for every XML tree
// satisfying Σ, under the null-aware FD semantics of §3. A compound
// right-hand side is checked attribute by attribute.
//
// Degenerate FDs follow directly from §3's semantics and are pinned by
// tests in degenerate_test.go: an empty right-hand side is vacuously
// propagated (X → ∅ constrains nothing), and an empty left-hand side
// ∅ → A requires A's variable to be unique in every document (all tuples
// must then agree on A; the Ycheck bookkeeping is empty, matching the
// null-aware reading that condition 1 is vacuous without X fields).
func (e *Engine) Propagates(fd rel.FD) bool {
	ok, _ := e.propagates(nil, fd)
	return ok
}

// PropagatesCtx is Propagates under a context: the check aborts as soon as
// ctx is cancelled or a budget attached via budget.With is exhausted,
// returning false together with ctx.Err() or a *budget.Error. A nil error
// means the boolean is the genuine verdict.
func (e *Engine) PropagatesCtx(ctx context.Context, fd rel.FD) (bool, error) {
	return e.propagates(ctx, fd)
}

// propagates checks every attribute on the right-hand side; a nil ctx is
// the legacy unbudgeted path with zero overhead.
func (e *Engine) propagates(ctx context.Context, fd rel.FD) (bool, error) {
	return e.walkRHS(ctx, fd, true)
}

// walkRHS walks each right-hand-side attribute of fd in turn and reports
// whether every walk met both conditions, stopping at the first that
// does not.
func (e *Engine) walkRHS(ctx context.Context, fd rel.FD, findKey bool) (bool, error) {
	ok := true
	var err error
	fd.Rhs.ForEach(func(a int) {
		if ok && err == nil {
			var keyFound, nullSafe bool
			keyFound, nullSafe, err = e.walk(ctx, fd.Lhs, a, findKey, nil)
			ok = keyFound && nullSafe
		}
	})
	return ok && err == nil, err
}

// walk is Algorithm propagation's keyed-ancestor walk (Fig 5) for X → A,
// A the field at rhsAttr: keyFound is condition 2 (some keyed ancestor
// has A's variable unique under it) and nullSafe is condition 1 (every X
// field is guaranteed non-null when A is). With findKey false the key
// search counts as already satisfied, so only the existence closure runs
// and no implication query is issued — GPropagates' null-safety check. A
// non-nil ex records each step the way Example 4.2 narrates it.
func (e *Engine) walk(ctx context.Context, lhs rel.AttrSet, rhsAttr int, findKey bool, ex *Explanation) (keyFound, nullSafe bool, err error) {
	rule, schema := e.rule, e.rule.Schema
	field := schema.Attrs[rhsAttr]
	x, ok := rule.VarOf(field)
	if !ok {
		return false, false, nil
	}

	// Fields of X, by name, plus the bookkeeping set Ycheck of fields whose
	// non-nullness is not yet guaranteed whenever A is non-null.
	lhsFields := make(map[string]bool, lhs.Card())
	ycheck := make(map[string]bool, lhs.Card())
	lhs.ForEach(func(i int) {
		lhsFields[schema.Attrs[i]] = true
		ycheck[schema.Attrs[i]] = true
	})

	// A trivial FD (A ∈ X) needs no keyed ancestor: condition 2 is
	// immediate; only the existence bookkeeping below remains.
	keyFound = !findKey
	if lhsFields[field] {
		keyFound = true
		ex.add(Step{Kind: StepTrivial})
	}

	cur := transform.RootVar
	for _, target := range rule.Ancestors(x) {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return false, false, err
			}
		}
		// ß (Fig 5 line 13): attributes of target that populate X fields.
		attrs, covered := rule.AttrsOfVarForFields(target, lhsFields)
		if !keyFound {
			ctxPath := e.pathFromRoot(cur)
			// A failed path lookup must fail the step: the zero-value path
			// reads as ε, which would prove a bogus uniqueness key and
			// silently mis-decide propagation.
			relPath, ok := rule.PathBetween(cur, target)
			keyed := false
			if ok {
				if keyed, err = e.dec.ImpliesCTCtx(ctx, ctxPath, relPath, attrs); err != nil {
					return false, false, err
				}
			}
			if !keyed {
				ex.add(Step{Kind: StepNotKeyed, Target: target, Query: ex.query(ctxPath, relPath, attrs)})
			} else {
				// target is keyed relative to the context variable by
				// attributes that populate X fields; advance the context
				// (sound by the target-to-context rule).
				ex.add(Step{Kind: StepKeyed, Target: target, Query: ex.query(ctxPath, relPath, attrs)})
				cur, ctxPath = target, e.pathFromRoot(target)
				// Is x unique under the new context?
				uniq, ok := rule.PathBetween(cur, x)
				if ok {
					if keyFound, err = e.dec.ImpliesCTCtx(ctx, ctxPath, uniq, nil); err != nil {
						return false, false, err
					}
				}
				kind := StepNotUnique
				if keyFound {
					kind = StepUnique
				}
				ex.add(Step{Kind: kind, Target: target, Query: ex.query(ctxPath, uniq, nil)})
			}
		}
		// exist() (Fig 5 lines 19–21): discharge X fields whose attributes
		// are guaranteed to exist on every target node. A field has one
		// variable, under one target, so covered fields are still pending.
		if len(attrs) > 0 && e.dec.ExistsAllID(e.rootID(target), attrs) {
			for _, f := range covered {
				delete(ycheck, f)
			}
			ex.add(Step{Kind: StepExists, Target: target, Fields: covered})
		}
	}
	if len(ycheck) > 0 && ex != nil {
		missing := make([]string, 0, len(ycheck))
		for f := range ycheck {
			missing = append(missing, f)
		}
		slices.Sort(missing)
		ex.add(Step{Kind: StepMissingExistence, Fields: missing})
	}
	return keyFound, len(ycheck) == 0, nil
}

// Propagates is the convenience entry point: Algorithm propagation with a
// fresh engine.
func Propagates(sigma []xmlkey.Key, rule *transform.Rule, fd rel.FD) bool {
	return NewEngine(sigma, rule).Propagates(fd)
}

// PropagatesCtx is the budgeted convenience entry point.
func PropagatesCtx(ctx context.Context, sigma []xmlkey.Key, rule *transform.Rule, fd rel.FD) (bool, error) {
	return NewEngine(sigma, rule).PropagatesCtx(ctx, fd)
}
