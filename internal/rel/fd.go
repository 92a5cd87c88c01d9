package rel

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// FD is a functional dependency X → Y over a schema's attribute positions.
type FD struct {
	Lhs AttrSet
	Rhs AttrSet
}

// NewFD builds an FD.
func NewFD(lhs, rhs AttrSet) FD { return FD{Lhs: lhs, Rhs: rhs} }

// IsTrivial reports whether Y ⊆ X (implied by reflexivity alone).
func (f FD) IsTrivial() bool { return f.Rhs.SubsetOf(f.Lhs) }

// Format renders the FD with attribute names from the schema, e.g.
// "isbn, chapterNum → chapName".
func (f FD) Format(s *Schema) string {
	return strings.Join(s.Names(f.Lhs), ", ") + " → " + strings.Join(s.Names(f.Rhs), ", ")
}

// ParseFD parses "a, b -> c" (also accepting "→") against a schema.
func ParseFD(s *Schema, text string) (FD, error) {
	t := strings.ReplaceAll(text, "→", "->")
	parts := strings.SplitN(t, "->", 2)
	if len(parts) != 2 {
		return FD{}, fmt.Errorf("rel: parse FD %q: missing ->", text)
	}
	split := func(side string) ([]string, error) {
		var out []string
		for _, a := range strings.Split(side, ",") {
			a = strings.TrimSpace(a)
			if a == "" {
				continue
			}
			out = append(out, a)
		}
		return out, nil
	}
	ls, _ := split(parts[0])
	rs, _ := split(parts[1])
	if len(rs) == 0 {
		return FD{}, fmt.Errorf("rel: parse FD %q: empty right-hand side", text)
	}
	lhs, err := s.Set(ls...)
	if err != nil {
		return FD{}, fmt.Errorf("rel: parse FD %q: %w", text, err)
	}
	rhs, err := s.Set(rs...)
	if err != nil {
		return FD{}, fmt.Errorf("rel: parse FD %q: %w", text, err)
	}
	return FD{Lhs: lhs, Rhs: rhs}, nil
}

// MustParseFD is ParseFD but panics on error.
func MustParseFD(s *Schema, text string) FD {
	f, err := ParseFD(s, text)
	if err != nil {
		panic(err)
	}
	return f
}

// Closure computes the attribute closure X⁺ of x under the FDs, using the
// classic fixpoint (linear passes over the FD list). It is the oracle the
// indexed FDIndex closure is checked against. Minimize runs on an FDIndex
// over the list's distinct LHSs and BCNF on one over the list itself,
// except for the keys of BCNF fragments wider than maxProjectionAttrs. The
// callers that still reach the fixpoint are Implies (and ImpliesAll with
// one goal), CandidateKey and IsSuperkey, and through them ThreeNF and
// those wide-fragment keys. The accumulator is a single mutable word
// slice, so a fixpoint step allocates nothing.
func Closure(fds []FD, x AttrSet) AttrSet {
	n := len(x.words)
	for _, f := range fds {
		if len(f.Rhs.words) > n {
			n = len(f.Rhs.words)
		}
	}
	acc := make([]uint64, n)
	copy(acc, x.words)
	changed := true
	for changed {
		changed = false
		for _, f := range fds {
			if subsetWords(f.Lhs.words, acc) && !subsetWords(f.Rhs.words, acc) {
				for i, w := range f.Rhs.words {
					acc[i] |= w
				}
				changed = true
			}
		}
	}
	return AttrSet{words: acc}.trim()
}

// subsetWords reports whether the set with words a is a subset of the set
// with words b.
func subsetWords(a, b []uint64) bool {
	for i, w := range a {
		var bw uint64
		if i < len(b) {
			bw = b[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// Implies reports whether the FDs imply f under Armstrong's axioms:
// X → Y iff Y ⊆ X⁺.
func Implies(fds []FD, f FD) bool {
	return f.Rhs.SubsetOf(Closure(fds, f.Lhs))
}

// ImpliesAll reports whether fds imply every FD in gs. For more than one
// goal it compiles an FDIndex once and answers each goal with an indexed
// pass instead of re-scanning the list.
func ImpliesAll(fds, gs []FD) bool {
	if len(gs) == 0 {
		return true
	}
	if len(gs) == 1 {
		return Implies(fds, gs[0])
	}
	return NewFDIndex(fds).ImpliesAll(gs)
}

// EquivalentCovers reports whether F and G have the same closure: each
// implies all FDs of the other.
func EquivalentCovers(f, g []FD) bool {
	return ImpliesAll(f, g) && ImpliesAll(g, f)
}

// Minimize computes a minimum cover of the input FDs: singleton right-hand
// sides, no extraneous left-hand-side attributes, no redundant FDs. This is
// the paper's function minimize (Fig 5 inset; Beeri & Bernstein 1979): it
// runs in quadratic time in the size of the input FD list.
//
// Both passes run on one FDIndex over the distinct LHSs (groupByLHS):
// minimumCover emits K → A once per transitive key K and field A, so a few
// LHSs carry most of the FDs, and an index over the FDs themselves would
// walk each LHS once per FD that shares it. The grouped index has the same
// closures as the FD list, so every decision is the one a per-FD index
// makes, and the cover comes out in the same order.
func Minimize(fds []FD) []FD {
	g := groupByLHS(fds)
	ix := NewFDIndex(g.lhs)
	if reduceLHS(ix, g.fds) {
		// A reduced FD may now repeat another or join another LHS's
		// group, so the redundancy pass needs the list regrouped.
		g = groupByLHS(g.fds)
		ix = NewFDIndex(g.lhs)
	}

	// Eliminate redundant FDs: X → A is redundant if the rest implies it.
	// "The rest" is the index with A cleared from X's live row, and from
	// the rows of the FDs already dropped. Each (X, A) pair is one FD of
	// the grouped list, so clearing one bit disables exactly that FD.
	out := make([]FD, 0, len(g.fds))
	live := ix.liveRows()
	for i, f := range g.fds {
		row := live[int(g.group[i])*ix.nWords:]
		for wi, w := range f.Rhs.words {
			row[wi] &^= w
		}
		if ix.impliesLive(f, live) {
			continue // redundant: stays cleared
		}
		for wi, w := range f.Rhs.words {
			row[wi] |= w
		}
		out = append(out, f)
	}
	return out
}

// lhsGroups is an FD list split into single-attribute FDs and grouped by
// left-hand side.
type lhsGroups struct {
	fds   []FD    // X → A, trimmed, in input order
	group []int32 // fds[i]'s group: the index of its X in lhs
	lhs   []FD    // one FD per distinct X, first seen first: X → its A's
}

// groupByLHS splits the right-hand sides into single attributes, in
// input order and ascending attribute order within an FD, and drops
// trivial FDs X → A (A ∈ X) and repeated (X, A) pairs, keeping the first:
// the list that splitting, deduplicating and dropping trivial FDs would
// leave, with one map keyed by X. The kept FDs share their LHS words with
// the input, and an FD whose RHS is already one attribute keeps its RHS
// too, so regrouping a split list allocates no sets. The group RHSs are
// rows of one word arena.
func groupByLHS(fds []FD) lhsGroups {
	nWords, nAttrs := 0, 0
	for _, f := range fds {
		if n := len(f.Lhs.trim().words); n > nWords {
			nWords = n
		}
		if n := len(f.Rhs.trim().words); n > nWords {
			nWords = n
		}
		nAttrs += f.Rhs.Card()
	}
	// Sized for lists whose LHSs are nearly all distinct: growing the map
	// and the FD list from empty made Minimize up to a third slower there.
	g := lhsGroups{fds: make([]FD, 0, nAttrs), group: make([]int32, 0, nAttrs)}
	index := make(map[string]int32, len(fds))
	var arena []uint64
	var key []byte
	for _, f := range fds {
		if f.IsTrivial() {
			continue
		}
		lhs, rhs := f.Lhs.trim(), f.Rhs.trim()
		key = lhs.AppendKey(key[:0])
		gi, ok := index[string(key)]
		if !ok {
			gi = int32(len(g.lhs))
			index[string(key)] = gi
			g.lhs = append(g.lhs, FD{Lhs: lhs})
			arena = append(arena, make([]uint64, nWords)...)
		}
		row := arena[int(gi)*nWords:]
		single := rhs.Card() == 1
		for wi, w := range rhs.words {
			if wi < len(lhs.words) {
				w &^= lhs.words[wi]
			}
			w &^= row[wi]
			row[wi] |= w
			for ; w != 0; w &= w - 1 {
				a := rhs
				if !single {
					a = AttrSet{}.With(wi*64 + bits.TrailingZeros64(w))
				}
				g.fds = append(g.fds, FD{Lhs: lhs, Rhs: a})
				g.group = append(g.group, gi)
			}
		}
	}
	for i := range g.lhs {
		g.lhs[i].Rhs = AttrSet{words: arena[i*nWords : (i+1)*nWords]}
	}
	return g
}

// reduceLHS eliminates extraneous LHS attributes in place and reports
// whether it removed any: B ∈ X is extraneous in X → A if (X ∖ B) → A
// already follows from the full set. ix, an index over the list or over
// any Armstrong-equivalent list such as its LHS groups, answers every
// test: each accepted reduction replaces X → A with an FD the current set
// already implies, so every intermediate set is Armstrong-equivalent to
// the original and has the same closure function.
//
// (X ∖ B) → A holds exactly when A ⊆ (X ∖ B)⁺, so each distinct X ∖ B is
// closed once and its closure kept for the rest of the call: minimumCover
// emits K → A for every field A under a keyed node, so each K ∖ B recurs
// once per field. The memo is local to the call, not the index's shared
// closure cache, whose traffic is exported as process counters.
func reduceLHS(ix *FDIndex, work []FD) bool {
	s := ix.getScratch()
	defer ix.putScratch(s)
	// Every X ∖ B is a subset of an indexed LHS, so each closure is exactly
	// ix.nWords words: memo maps a set key to its closure's offset in arena.
	// Sized to the index, one entry per distinct LHS: where the LHSs are
	// nearly all distinct, almost every X ∖ B is new, and growing the map
	// from empty made those lists a few percent slower.
	memo := make(map[string]int, ix.Len())
	var arena []uint64
	var key []byte
	var reduced []uint64
	changed := false
	for i := range work {
		// B runs over the original X in ascending order; lhs is X with
		// the attributes removed so far.
		orig := work[i].Lhs.trim()
		lhs := orig
		for wi, w := range orig.words {
			for ; w != 0; w &= w - 1 {
				reduced = append(reduced[:0], lhs.words...)
				reduced[wi] &^= w & -w
				x := AttrSet{words: reduced}.trim()
				key = x.AppendKey(key[:0])
				off, ok := memo[string(key)]
				if !ok {
					ix.run(s, x, nil, nil)
					off = len(arena)
					arena = append(arena, s.acc...)
					memo[string(key)] = off
				}
				if subsetWords(work[i].Rhs.words, arena[off:off+ix.nWords]) {
					lhs = AttrSet{words: append([]uint64(nil), x.words...)}
					work[i].Lhs = lhs
					changed = true
				}
			}
		}
	}
	return changed
}

// IsNonRedundant reports whether no FD in the list is implied by the others.
func IsNonRedundant(fds []FD) bool {
	ix := NewFDIndex(fds)
	live := ix.liveRows()
	saved := make([]uint64, ix.nWords)
	for i := range fds {
		row := live[i*ix.nWords : (i+1)*ix.nWords]
		copy(saved, row)
		clear(row)
		if ix.impliesLive(fds[i], live) {
			return false
		}
		copy(row, saved)
	}
	return true
}

// SortFDs orders FDs deterministically (by LHS key, then RHS key), for
// stable output.
func SortFDs(fds []FD) {
	sort.Slice(fds, func(i, j int) bool {
		a, b := fds[i], fds[j]
		if ak, bk := a.Lhs.Card(), b.Lhs.Card(); ak != bk {
			return ak < bk
		}
		if c := cmpWords(a.Lhs.trim().words, b.Lhs.trim().words); c != 0 {
			return c < 0
		}
		return cmpWords(a.Rhs.trim().words, b.Rhs.trim().words) < 0
	})
}

// FormatFDs renders a list of FDs, one per line, in deterministic order.
func FormatFDs(s *Schema, fds []FD) string {
	cp := append([]FD(nil), fds...)
	SortFDs(cp)
	var b strings.Builder
	for _, f := range cp {
		b.WriteString(f.Format(s))
		b.WriteByte('\n')
	}
	return b.String()
}
