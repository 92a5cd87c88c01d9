package rel

import (
	"context"
	"fmt"
	"sort"

	"xkprop/internal/budget"
)

// This file implements the schema-refinement side of the paper's workflow
// (Examples 1.2 and 3.1): once a minimum cover of the propagated FDs is
// known, the universal relation is decomposed into BCNF, or synthesized
// into 3NF.

// IsSuperkey reports whether x is a superkey of the sub-schema attrs under
// the FDs: attrs ⊆ x⁺.
func IsSuperkey(fds []FD, x, attrs AttrSet) bool {
	return attrs.SubsetOf(Closure(fds, x))
}

// CandidateKey returns one minimal key of the sub-schema attrs under the
// FDs, computed by greedy attribute removal from attrs.
func CandidateKey(fds []FD, attrs AttrSet) AttrSet {
	key := attrs
	for _, i := range attrs.Positions() {
		reduced := key.Without(i)
		if IsSuperkey(fds, reduced, attrs) {
			key = reduced
		}
	}
	return key
}

// CandidateKeys enumerates all minimal keys of the sub-schema attrs. The
// enumeration is exponential in the worst case; limit caps the number of
// keys returned (0 means no cap). Intended for the small schemas that occur
// in design refinement.
func CandidateKeys(fds []FD, attrs AttrSet, limit int) []AttrSet {
	keys, _ := CandidateKeysCtx(nil, fds, attrs, limit)
	return keys
}

// CandidateKeysCtx is CandidateKeys under a context and budget: the BFS
// checks ctx once per dequeued candidate, and a budget.MaxCandidateKeys
// attached via budget.With caps the number of candidate superkeys
// *explored* (not just keys returned), bounding the exponential search
// itself. On abort it returns the minimal keys found so far together with
// ctx.Err() or a *budget.Error — err == nil is the only guarantee that the
// enumeration is exhaustive (up to limit).
func CandidateKeysCtx(ctx context.Context, fds []FD, attrs AttrSet, limit int) ([]AttrSet, error) {
	return CandidateKeysIndexedCtx(ctx, NewFDIndex(fds), attrs, limit)
}

// CandidateKeysIndexedCtx is CandidateKeysCtx over a prebuilt FDIndex, so
// request paths holding a compiled index (core.Engine, registry artifacts)
// skip index construction. Every superkey test in the BFS is one indexed
// pass.
func CandidateKeysIndexedCtx(ctx context.Context, ix *FDIndex, attrs AttrSet, limit int) ([]AttrSet, error) {
	fds := ix.FDs()
	isSuperkey := func(x AttrSet) bool {
		return ix.Implies(FD{Lhs: x, Rhs: attrs})
	}
	var keys []AttrSet
	var retErr error
	isMinimal := func(x AttrSet) bool {
		for _, i := range x.Positions() {
			if isSuperkey(x.Without(i)) {
				return false
			}
		}
		return true
	}
	var maxExplored int
	if b := budget.From(ctx); b != nil {
		maxExplored = b.MaxCandidateKeys
	}
	seen := map[string]bool{}
	// BFS over candidate superkeys starting from one key, replacing
	// attributes with determinants (Lucchesi–Osborn style).
	first := ix.CandidateKey(attrs)
	queue := []AttrSet{first}
	seen[first.key()] = true
	explored := 0
	for len(queue) > 0 {
		// The limit gates the loop head: once enough keys are collected no
		// further candidate is minimality-checked or expanded, so limit
		// bounds the work done, not just the slice returned.
		if limit > 0 && len(keys) >= limit {
			break
		}
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				retErr = err
				break
			}
		}
		if maxExplored > 0 && explored >= maxExplored {
			retErr = budget.Exceeded("candidate keys", budget.CandidateKeys, maxExplored)
			break
		}
		explored++
		k := queue[0]
		queue = queue[1:]
		if isMinimal(k) {
			keys = append(keys, k)
			if limit > 0 && len(keys) >= limit {
				break
			}
		}
		for _, f := range fds {
			if f.Rhs.Intersect(k).IsEmpty() {
				continue
			}
			cand := f.Lhs.Union(k.Minus(f.Rhs)).Intersect(attrs)
			// Minimize the candidate superkey before enqueueing.
			if !isSuperkey(cand) {
				continue
			}
			for _, i := range cand.Positions() {
				if isSuperkey(cand.Without(i)) {
					cand = cand.Without(i)
				}
			}
			if !seen[cand.key()] {
				seen[cand.key()] = true
				queue = append(queue, cand)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key() < keys[j].key() })
	return keys, retErr
}

// maxProjectionAttrs bounds exact FD projection; beyond it, ProjectFDs
// falls back to the LHS-driven approximation (documented in DESIGN.md).
const maxProjectionAttrs = 18

// ProjectFDs computes a cover of the FDs that hold on the sub-schema attrs:
// { X → X⁺∩attrs | X ⊆ attrs }. Exact projection is inherently exponential
// (Gottlob, PODS'87 — the very result that makes the paper's polynomial
// minimumCover surprising); for sub-schemas larger than maxProjectionAttrs
// attributes it falls back to restricting the closures of existing LHSs.
func ProjectFDs(fds []FD, attrs AttrSet) []FD {
	var out []FD
	ix := NewFDIndex(fds)
	if attrs.Card() <= maxProjectionAttrs {
		pos := attrs.Positions()
		n := len(pos)
		for mask := 0; mask < 1<<uint(n); mask++ {
			var x AttrSet
			for b := 0; b < n; b++ {
				if mask&(1<<uint(b)) != 0 {
					x = x.With(pos[b])
				}
			}
			rhs := ix.Closure(x).Intersect(attrs).Minus(x)
			if !rhs.IsEmpty() {
				out = append(out, FD{Lhs: x, Rhs: rhs})
			}
		}
	} else {
		for _, f := range fds {
			x := f.Lhs.Intersect(attrs)
			rhs := ix.Closure(x).Intersect(attrs).Minus(x)
			if !rhs.IsEmpty() {
				out = append(out, FD{Lhs: x, Rhs: rhs})
			}
		}
	}
	return Minimize(out)
}

// Fragment is one relation of a decomposition.
type Fragment struct {
	// Attrs is the fragment's attribute set (positions in the original
	// universal schema).
	Attrs AttrSet
	// Key is a candidate key of the fragment under the projected FDs.
	Key AttrSet
}

// BCNF decomposes the sub-schema attrs into Boyce–Codd normal form under
// the FDs, using the classic decomposition: while some fragment has a
// violating FD X → A (X not a superkey of the fragment), split the fragment
// into X⁺∩fragment and X ∪ (fragment ∖ X⁺). Violations are searched among
// projected FDs, so small fragments are checked exactly.
func BCNF(fds []FD, attrs AttrSet) []Fragment {
	// One index (with a closure cache: the same declared LHSs are re-closed
	// for every fragment) serves the whole decomposition.
	ix := NewFDIndex(fds)
	ix.EnableCache(0)
	var done []Fragment
	work := []AttrSet{attrs}
	for len(work) > 0 {
		frag := work[0]
		work = work[1:]
		if frag.Card() <= 1 {
			done = append(done, Fragment{Attrs: frag})
			continue
		}
		viol, ok := bcnfViolation(ix, frag)
		if !ok {
			done = append(done, Fragment{Attrs: frag})
			continue
		}
		closure := ix.Closure(viol.Lhs).Intersect(frag)
		left := closure
		right := viol.Lhs.Union(frag.Minus(closure))
		work = append(work, left, right)
	}
	// Drop fragments subsumed by others (can arise from redundant splits).
	sort.Slice(done, func(i, j int) bool { return done[i].Attrs.Card() > done[j].Attrs.Card() })
	var out []Fragment
	for _, f := range done {
		covered := false
		for _, g := range out {
			if f.Attrs.SubsetOf(g.Attrs) {
				covered = true
				break
			}
		}
		if !covered {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Attrs.key() < out[j].Attrs.key() })
	// Key each fragment under its projected FDs. Up to the exact-projection
	// cut-off the projection needs no computing: its closure of any
	// X ⊆ fragment is X⁺ ∩ fragment, so the greedy removal over the full
	// index makes the same superkey tests in the same order.
	for i := range out {
		if out[i].Attrs.Card() <= maxProjectionAttrs {
			out[i].Key = ix.CandidateKey(out[i].Attrs)
		} else {
			out[i].Key = CandidateKey(ProjectFDs(fds, out[i].Attrs), out[i].Attrs)
		}
	}
	return out
}

// bcnfViolation finds an FD X → A violating BCNF on fragment: X ⊊ fragment,
// A ∈ fragment ∖ X, X not a superkey of fragment. It first scans declared
// LHSs (fast path), then falls back to exact projection for small fragments.
// The projection is computed only once projectedViolation has shown that
// one of its FDs violates; the violation returned is still the
// projection's first, which fixes the split.
func bcnfViolation(ix *FDIndex, frag AttrSet) (FD, bool) {
	for _, f := range ix.FDs() {
		x := f.Lhs
		if !x.SubsetOf(frag) {
			continue
		}
		rhs := ix.Closure(x).Intersect(frag).Minus(x)
		if rhs.IsEmpty() {
			continue
		}
		if !ix.Implies(FD{Lhs: x, Rhs: frag}) {
			return FD{Lhs: x, Rhs: rhs}, true
		}
	}
	if frag.Card() <= maxProjectionAttrs && projectedViolation(ix, frag) {
		for _, f := range ProjectFDs(ix.FDs(), frag) {
			if !ix.Implies(FD{Lhs: f.Lhs, Rhs: frag}) {
				return f, true
			}
		}
	}
	return FD{}, false
}

// projectedViolation reports whether some X ⊆ frag has X⁺ ∩ frag ⊋ X while
// frag ⊄ X⁺: whether the FDs projected onto frag break BCNF. A fragment is
// in BCNF under every cover of its projection or under none, so this
// agrees with a scan of ProjectFDs(fds, frag) for a non-superkey LHS. It
// visits the same 2^|frag| subsets without building the projection, each
// closure in the index's pooled scratch: the closure cache would be
// thrashed by that many one-off sets, and its counters are exported.
func projectedViolation(ix *FDIndex, frag AttrSet) bool {
	frag = frag.trim()
	pos := frag.Positions()
	s := ix.getScratch()
	defer ix.putScratch(s)
	x := make([]uint64, len(frag.words))
	for mask := 0; mask < 1<<uint(len(pos)); mask++ {
		for i := range x {
			x[i] = 0
		}
		for b, p := range pos {
			if mask&(1<<uint(b)) != 0 {
				x[p/64] |= 1 << (uint(p) % 64)
			}
		}
		// run stops early once frag ⊆ X⁺: X is a superkey. Otherwise s.acc
		// holds X⁺, and any member of frag outside X is a violation.
		if ix.run(s, AttrSet{words: x}, nil, frag.words) {
			continue
		}
		for i, w := range frag.words {
			if w&^x[i]&s.acc[i] != 0 {
				return true
			}
		}
	}
	return false
}

// IsBCNF reports whether the sub-schema attrs is in BCNF under the FDs.
func IsBCNF(fds []FD, attrs AttrSet) bool {
	_, viol := bcnfViolation(NewFDIndex(fds), attrs)
	return !viol
}

// ThreeNF synthesizes a 3NF, dependency-preserving, lossless decomposition
// from a minimum cover (Bernstein synthesis): one fragment per LHS group,
// plus a key fragment if no fragment contains a candidate key of attrs.
// Groups are built and ordered by the cover's order, so when two groups
// have the same attributes the one whose LHS comes first in the cover is
// kept, and its key with it.
func ThreeNF(fds []FD, attrs AttrSet) []Fragment {
	cover := Minimize(fds)
	var out []Fragment
	group := map[string]int{}
	for _, f := range cover {
		k := f.Lhs.key()
		i, ok := group[k]
		if !ok {
			i = len(out)
			group[k] = i
			out = append(out, Fragment{Attrs: f.Lhs, Key: f.Lhs})
		}
		out[i].Attrs = out[i].Attrs.Union(f.Rhs)
	}
	// Drop fragments contained in others.
	sort.SliceStable(out, func(i, j int) bool { return out[i].Attrs.Card() > out[j].Attrs.Card() })
	var kept []Fragment
	for _, f := range out {
		sub := false
		for _, g := range kept {
			if f.Attrs.SubsetOf(g.Attrs) {
				sub = true
				break
			}
		}
		if !sub {
			kept = append(kept, f)
		}
	}
	// Ensure some fragment contains a candidate key of the whole schema.
	key := CandidateKey(cover, attrs)
	hasKey := false
	for _, f := range kept {
		if key.SubsetOf(f.Attrs) {
			hasKey = true
			break
		}
	}
	if !hasKey {
		kept = append(kept, Fragment{Attrs: key, Key: key})
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].Attrs.key() < kept[j].Attrs.key() })
	return kept
}

// LosslessJoin reports whether a decomposition of attrs has the lossless-
// join property under the FDs, via the chase (tableau) test.
func LosslessJoin(fds []FD, attrs AttrSet, frags []Fragment) bool {
	pos := attrs.Positions()
	col := make(map[int]int, len(pos))
	for c, p := range pos {
		col[p] = c
	}
	nCols := len(pos)
	nRows := len(frags)
	if nRows == 0 {
		return false
	}
	// tableau[r][c]: 0 means the distinguished symbol a_c; k>0 means b_{k}.
	tab := make([][]int, nRows)
	next := 1
	for r, f := range frags {
		tab[r] = make([]int, nCols)
		for c, p := range pos {
			if f.Attrs.Has(p) {
				tab[r][c] = 0
			} else {
				tab[r][c] = next
				next++
			}
		}
	}
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			lhsCols := []int{}
			ok := true
			f.Lhs.ForEach(func(p int) {
				c, in := col[p]
				if !in {
					ok = false
					return
				}
				lhsCols = append(lhsCols, c)
			})
			if !ok {
				continue
			}
			rhsCols := []int{}
			f.Rhs.ForEach(func(p int) {
				if c, in := col[p]; in {
					rhsCols = append(rhsCols, c)
				}
			})
			for i := 0; i < nRows; i++ {
				for j := i + 1; j < nRows; j++ {
					agree := true
					for _, c := range lhsCols {
						if tab[i][c] != tab[j][c] {
							agree = false
							break
						}
					}
					if !agree {
						continue
					}
					for _, c := range rhsCols {
						if tab[i][c] == tab[j][c] {
							continue
						}
						lo, hi := tab[i][c], tab[j][c]
						if lo > hi {
							lo, hi = hi, lo
						}
						// Equate: rewrite hi to lo everywhere in column c.
						for r := 0; r < nRows; r++ {
							if tab[r][c] == hi {
								tab[r][c] = lo
							}
						}
						changed = true
					}
				}
			}
		}
		for r := 0; r < nRows; r++ {
			all := true
			for c := 0; c < nCols; c++ {
				if tab[r][c] != 0 {
					all = false
					break
				}
			}
			if all {
				return true
			}
		}
	}
	return false
}

// PreservesDependencies reports whether the decomposition preserves the
// FDs: the union of projections onto the fragments implies every input FD.
func PreservesDependencies(fds []FD, frags []Fragment) bool {
	var union []FD
	for _, f := range frags {
		union = append(union, ProjectFDs(fds, f.Attrs)...)
	}
	return ImpliesAll(union, fds)
}

// FormatFragments renders a decomposition using schema names, e.g.
// "book(bookIsbn, bookTitle, authContact) key (bookIsbn)".
func FormatFragments(s *Schema, frags []Fragment) string {
	var out string
	for i, f := range frags {
		out += fmt.Sprintf("R%d(%s) key %s\n", i+1,
			joinNames(s, f.Attrs), s.FormatSet(f.Key))
	}
	return out
}

func joinNames(s *Schema, as AttrSet) string {
	names := s.Names(as)
	out := ""
	for i, n := range names {
		if i > 0 {
			out += ", "
		}
		out += n
	}
	return out
}
