package xmlkey

import (
	"strings"

	"xkprop/internal/xpath"
)

// This file retains the pre-interning implication procedure as a reference
// oracle: the same inference rules as Decider, but running the recursive
// containment DPs (xpath.Path.ContainedIn) directly over Path values with
// a string-keyed memo, no interner, no compiled kernel, no verdict cache
// and no shared state. It is the slow lane the differential harness
// (internal/diffcheck, lane 1) drives against the production Decider: the
// two must agree on every goal, or one of the compiled layers — interning,
// the iterative kernel, the verdict cache, the memo sharding — has
// silently diverged from the semantics.

// OracleImplies reports Σ ⊨ φ using the reference procedure.
func OracleImplies(sigma []Key, phi Key) bool {
	return OracleImpliesCT(sigma, phi.Context, phi.Target, phi.Attrs)
}

// OracleImpliesCT is OracleImplies over a (context, target, attrs) goal.
// Every call builds fresh state: worst-case cost is exponential in memo
// misses relative to a warm Decider, which is fine for its only job —
// being an independently-derived second opinion.
func OracleImpliesCT(sigma []Key, c, t xpath.Path, attrs []string) bool {
	o := &oracleQuery{sigma: sigma, memo: make(map[string]int8)}
	return o.implies(c.Normalize(), t.Normalize(), normalizeAttrs(attrs))
}

// oracleQuery is one top-level reference query. Its memo has three
// states: oracleInProgress marks goals on the current proof path (read
// as refuted, which cuts cycles), and oraclePos and oracleNeg mark
// decided goals. A cycle-cut refutation is kept as a refutation for the
// rest of the query, exactly as in the pre-interning implementation; the
// Decider, whose memo outlives the query, publishes one only when its
// strongly connected component of sub-goals closes.
type oracleQuery struct {
	sigma []Key
	memo  map[string]int8
}

const (
	oracleInProgress int8 = 1
	oraclePos        int8 = 2
	oracleNeg        int8 = 3
)

func oracleGoalKey(q, t xpath.Path, attrs []string) string {
	return q.String() + "\x00" + t.String() + "\x00" + strings.Join(attrs, "\x01")
}

func (o *oracleQuery) implies(q, t xpath.Path, attrs []string) bool {
	// attribute-step reduction, as in query.impliesT.
	if t.HasAttribute() {
		if len(attrs) != 0 {
			return false
		}
		t = t.StripAttribute()
	}
	if q.HasAttribute() {
		return false
	}
	g := oracleGoalKey(q, t, attrs)
	switch o.memo[g] {
	case oracleInProgress, oracleNeg:
		return false
	case oraclePos:
		return true
	}
	o.memo[g] = oracleInProgress
	res := o.prove(q, t, attrs)
	if res {
		o.memo[g] = oraclePos
	} else {
		o.memo[g] = oracleNeg
	}
	return res
}

func (o *oracleQuery) prove(q, t xpath.Path, attrs []string) bool {
	// epsilon rule.
	if t.IsEpsilon() && len(attrs) == 0 {
		return true
	}

	// unique-target weakening.
	if len(attrs) > 0 && o.existsAll(q.Concat(t), attrs) {
		if o.implies(q, t, nil) {
			return true
		}
	}

	// direct rule over every σ and every decomposition of its target.
	for _, sig := range o.sigma {
		sa := normalizeAttrs(sig.Attrs)
		if !subsetSorted(sa, attrs) {
			continue
		}
		extra := diffSorted(attrs, sa, nil)
		if len(extra) > 0 && !o.existsAll(q.Concat(t), extra) {
			continue
		}
		sctx := sig.Context.Normalize()
		stgt := sig.Target.Normalize()
		for _, sp := range splitsAll(stgt) {
			if q.ContainedIn(sctx.Concat(sp.prefix)) && t.ContainedIn(sp.suffix) {
				return true
			}
		}
	}

	// unique-prefix composition.
	for _, sp := range splits(t) {
		if !o.implies(q, sp.prefix, nil) {
			continue
		}
		if o.implies(q.Concat(sp.prefix), sp.suffix, attrs) {
			return true
		}
	}
	return false
}

// existsAll is the reference exist() closure: @a is guaranteed on p-nodes
// if some σ ∈ Σ carries @a and p ⊆ Qσ/Q'σ, decided by the recursive DP.
func (o *oracleQuery) existsAll(p xpath.Path, attrs []string) bool {
	remaining := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		remaining[a] = true
	}
	for _, sig := range o.sigma {
		if len(sig.Attrs) == 0 {
			continue
		}
		if !p.ContainedIn(sig.Context.Normalize().Concat(sig.Target.Normalize())) {
			continue
		}
		for _, a := range normalizeAttrs(sig.Attrs) {
			delete(remaining, a)
		}
		if len(remaining) == 0 {
			return true
		}
	}
	return len(remaining) == 0
}
