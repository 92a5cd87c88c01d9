package core

import (
	"context"

	"xkprop/internal/budget"
	"xkprop/internal/rel"
)

// NaiveCover implements Algorithm naive (§5): enumerate every candidate FD
// X → A on the universal relation (X over all subsets of the remaining
// fields — exponential by construction), keep those Algorithm propagation
// accepts, and minimize the result. The paper uses it as the baseline that
// motivates minimumCover: its running time grows ~two-hundred-fold for
// every five extra fields (Fig 7a).
//
// NaiveCover panics on schemas over budget.DefaultEnumFields fields; use
// NaiveCoverCtx with budget.Budget.MaxEnumFields to raise (or lower) the
// cap and get a typed error instead.
func (e *Engine) NaiveCover() []rel.FD {
	cover, err := e.NaiveCoverCtx(nil)
	if err != nil {
		panic("core: NaiveCover is exponential; refusing schemas over 24 fields")
	}
	return cover
}

// naiveHardCap bounds MaxEnumFields itself: above it the candidate count
// n * 2^(n-1) overflows any practical time budget and, past 57, int64.
const naiveHardCap = 30

// NaiveCoverCtx is NaiveCover under a context and budget. The enumeration
// refuses schemas wider than the field cap (MaxEnumFields if set, else
// budget.DefaultEnumFields) with a *budget.Error instead of a panic, and
// aborts mid-enumeration on cancellation or budget exhaustion with
// (nil, err) — a partially filtered cover is never returned as complete.
func (e *Engine) NaiveCoverCtx(ctx context.Context) ([]rel.FD, error) {
	schema := e.rule.Schema
	n := schema.Len()
	fieldCap := budget.DefaultEnumFields
	if b := budget.From(ctx); b != nil && b.MaxEnumFields > 0 {
		fieldCap = b.MaxEnumFields
	}
	if fieldCap > naiveHardCap {
		fieldCap = naiveHardCap
	}
	if n > fieldCap {
		return nil, budget.Exceeded("naive cover", budget.EnumFields, fieldCap)
	}
	if n == 0 {
		return nil, nil
	}
	// Candidate idx is X → a with a = idx / perRhs and X the subset
	// mask = idx % perRhs of the other n-1 fields. Candidates are built
	// one at a time and kept only if accepted, so the candidate space is
	// never materialized.
	perRhs := 1 << uint(n-1)
	var found []rel.FD
	for idx := 0; idx < n*perRhs; idx++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		a, mask := idx/perRhs, idx%perRhs
		var lhs rel.AttrSet
		for b := 0; b < n-1; b++ {
			if mask&(1<<uint(b)) != 0 {
				pos := b
				if pos >= a {
					pos++ // skip the RHS attribute
				}
				lhs = lhs.With(pos)
			}
		}
		fd := rel.NewFD(lhs, rel.AttrSet{}.With(a))
		ok, err := e.propagates(ctx, fd)
		if err != nil {
			return nil, err
		}
		if ok {
			found = append(found, fd)
		}
	}
	return rel.Minimize(found), nil
}
