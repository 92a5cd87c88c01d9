package rel

import (
	"fmt"
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
// indexed FDIndex closure is checked against. Minimize and BCNF run on an
// FDIndex, except for the keys of BCNF fragments wider than
// maxProjectionAttrs; the callers that still reach the fixpoint are
// Implies (and ImpliesAll with one goal), CandidateKey and IsSuperkey, and
// through them ThreeNF and those wide-fragment keys. The accumulator is a
// single mutable word slice, so a fixpoint step allocates nothing.
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

// SplitRhs rewrites the FDs into an equivalent list with singleton
// right-hand sides (the canonical form used by minimize).
func SplitRhs(fds []FD) []FD {
	var out []FD
	for _, f := range fds {
		f.Rhs.ForEach(func(i int) {
			out = append(out, FD{Lhs: f.Lhs, Rhs: AttrSet{}.With(i)})
		})
	}
	return out
}

// Dedup removes syntactic duplicates (same LHS and RHS).
func Dedup(fds []FD) []FD {
	seen := make(map[string]bool, len(fds))
	var out []FD
	var buf []byte
	for _, f := range fds {
		buf = appendFDKey(buf[:0], f)
		if seen[string(buf)] {
			continue
		}
		seen[string(buf)] = true
		out = append(out, f)
	}
	return out
}

// appendFDKey encodes (Lhs, Rhs) unambiguously into buf: the trimmed LHS
// word count, then the LHS words, then the RHS words, all big-endian.
func appendFDKey(buf []byte, f FD) []byte {
	lhs, rhs := f.Lhs.trim(), f.Rhs.trim()
	buf = append(buf, byte(len(lhs.words)))
	for _, w := range lhs.words {
		buf = append(buf,
			byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
			byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	for _, w := range rhs.words {
		buf = append(buf,
			byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
			byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return buf
}

// Minimize computes a minimum cover of the input FDs: singleton right-hand
// sides, no extraneous left-hand-side attributes, no redundant FDs. This is
// the paper's function minimize (Fig 5 inset; Beeri & Bernstein 1979): it
// runs in quadratic time in the size of the input FD list.
func Minimize(fds []FD) []FD {
	work := Dedup(SplitRhs(fds))
	// Drop trivial FDs up front; they are always redundant.
	kept := work[:0]
	for _, f := range work {
		if !f.IsTrivial() {
			kept = append(kept, f)
		}
	}
	work = kept

	reduceLHS(work)
	work = Dedup(work)

	// Eliminate redundant FDs: f is redundant if the rest implies it. The
	// reduced list gets a fresh index; "the rest" is the index minus the
	// current FD and the ones already dropped, expressed as a disabled mask
	// so no per-iteration list rebuild (or index rebuild) is needed.
	out := make([]FD, 0, len(work))
	ix := NewFDIndex(work)
	disabled := make([]bool, len(work))
	for i := range work {
		disabled[i] = true
		if ix.impliesDisabled(work[i], disabled) {
			continue // redundant: stays disabled
		}
		disabled[i] = false
		out = append(out, work[i])
	}
	return out
}

// reduceLHS eliminates extraneous LHS attributes in place: B ∈ X is
// extraneous in X → A if (X ∖ B) → A already follows from the full set.
// One index compiled from the pre-reduction list answers every test: each
// accepted reduction replaces X → A with an FD the current set already
// implies, so every intermediate set is Armstrong-equivalent to the
// original and has the same closure function.
//
// (X ∖ B) → A holds exactly when A ⊆ (X ∖ B)⁺, so each distinct X ∖ B is
// closed once and its closure kept for the rest of the call: minimumCover
// emits K → A for every field A under a keyed node, so each K ∖ B recurs
// once per field. The memo is local to the call, not the index's shared
// closure cache, whose traffic is exported as process counters.
func reduceLHS(work []FD) {
	ix := NewFDIndex(work)
	s := ix.getScratch()
	defer ix.putScratch(s)
	// Every X ∖ B is a subset of an indexed LHS, so each closure is exactly
	// ix.nWords words: memo maps a set key to its closure's offset in arena.
	// Sized for lists whose LHSs are nearly all distinct, where almost every
	// X ∖ B is new: growing the map from empty made those a few percent
	// slower.
	memo := make(map[string]int, len(work))
	var arena []uint64
	var key []byte
	var reduced []uint64
	for i := range work {
		lhs := work[i].Lhs.trim()
		for _, b := range lhs.Positions() {
			reduced = append(reduced[:0], lhs.words...)
			reduced[b/64] &^= 1 << (uint(b) % 64)
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
			}
		}
	}
}

// IsNonRedundant reports whether no FD in the list is implied by the others.
func IsNonRedundant(fds []FD) bool {
	ix := NewFDIndex(fds)
	disabled := make([]bool, len(fds))
	for i := range fds {
		disabled[i] = true
		if ix.impliesDisabled(fds[i], disabled) {
			return false
		}
		disabled[i] = false
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
