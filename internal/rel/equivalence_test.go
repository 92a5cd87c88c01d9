package rel

import (
	"math/rand"
	"testing"
)

// The tests in this file pin the shortcuts of the design passes to the
// computations they replace: Minimize's index over distinct LHSs and its
// memoised LHS reduction, the fragment keys BCNF takes from the full
// index, and the violation pre-check that spares BCNF-clean fragments the
// exact projection.

// keyedFDs builds a seeded FD list over nAttrs attributes shaped like
// minimumCover's candidates: a few keys, each the LHS of several FDs,
// and each also widened by one attribute, so that the widened LHSs
// reduce, plus randomFDs noise.
func keyedFDs(r *rand.Rand, nAttrs int) []FD {
	fds := randomFDs(r, nAttrs, r.Intn(nAttrs/2+1))
	for k := 0; k < 1+r.Intn(4); k++ {
		key := randomSet(r, nAttrs, 1+r.Intn(4))
		wide := key.With(r.Intn(nAttrs))
		for j := 0; j < 2+r.Intn(8); j++ {
			a := AttrSet{}.With(r.Intn(nAttrs))
			fds = append(fds, FD{Lhs: key, Rhs: a}, FD{Lhs: wide, Rhs: a})
		}
	}
	r.Shuffle(len(fds), func(i, j int) { fds[i], fds[j] = fds[j], fds[i] })
	return fds
}

// reduceLHSPerQuery is the LHS reduction without the closure memo: one
// early-exit implication query per FD and LHS attribute.
func reduceLHSPerQuery(work []FD) {
	ix := NewFDIndex(work)
	for i := range work {
		lhs := work[i].Lhs
		for _, b := range lhs.Positions() {
			reduced := lhs.Without(b)
			if ix.Implies(FD{Lhs: reduced, Rhs: work[i].Rhs}) {
				lhs = reduced
				work[i].Lhs = lhs
			}
		}
	}
}

// splitRhs rewrites the FDs into an equivalent list with singleton
// right-hand sides, one FD per RHS attribute in ascending order.
func splitRhs(fds []FD) []FD {
	var out []FD
	for _, f := range fds {
		f.Rhs.ForEach(func(i int) {
			out = append(out, FD{Lhs: f.Lhs, Rhs: AttrSet{}.With(i)})
		})
	}
	return out
}

// dedup removes syntactic duplicates (same LHS and RHS), keeping the first.
func dedup(fds []FD) []FD {
	seen := make(map[string]bool, len(fds))
	var out []FD
	for _, f := range fds {
		k := f.Lhs.key() + "|" + f.Rhs.key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, f)
	}
	return out
}

// splitNonTrivial is splitRhs and dedup without the trivial FDs: the list
// Minimize's grouping pass keeps.
func splitNonTrivial(fds []FD) []FD {
	var out []FD
	for _, f := range dedup(splitRhs(fds)) {
		if !f.IsTrivial() {
			out = append(out, f)
		}
	}
	return out
}

// minimizePerFD is Minimize over an index with one dep per split FD:
// split, dedup and drop trivial FDs, reduce LHSs with one implication
// query per attribute, dedup again, then drop each FD that the others
// imply, taking FD i out by zeroing its row. It also reports whether some
// LHS was reduced and how many FDs were redundant, so that a test can tell
// both paths of Minimize ran.
func minimizePerFD(fds []FD) (cover []FD, reduced bool, redundant int) {
	work := splitNonTrivial(fds)
	before := append([]FD(nil), work...)
	reduceLHSPerQuery(work)
	for i := range work {
		if !work[i].Lhs.Equal(before[i].Lhs) {
			reduced = true
		}
	}
	work = dedup(work)
	ix := NewFDIndex(work)
	live := ix.liveRows()
	for i, f := range work {
		row := live[i*ix.nWords : (i+1)*ix.nWords]
		saved := append([]uint64(nil), row...)
		clear(row)
		if ix.impliesLive(f, live) {
			redundant++
			continue
		}
		copy(row, saved)
		cover = append(cover, f)
	}
	return cover, reduced, redundant
}

// sameFDs reports whether two FD lists hold equal FDs in the same order.
func sameFDs(a, b []FD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Lhs.Equal(b[i].Lhs) || !a[i].Rhs.Equal(b[i].Rhs) {
			return false
		}
	}
	return true
}

// TestMinimizeMatchesPerFD: Minimize over the LHS groups returns the
// per-FD cover, FD for FD and in order, on lists shaped like
// minimumCover's candidates and on random lists, over one-, two- and
// three-word universes, with empty and repeated LHSs and multi-attribute
// RHSs. Both of its paths must run: lists that reduce an LHS (and are
// regrouped) and lists that do not, and FDs that are redundant.
func TestMinimizeMatchesPerFD(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	var reducedLists, plainLists, redundant int
	words := map[int]int{}
	for trial := 0; trial < 5000; trial++ {
		nAttrs := 2 + r.Intn(190)
		var fds []FD
		if trial%2 == 0 {
			fds = keyedFDs(r, nAttrs)
		} else {
			fds = randomFDs(r, nAttrs, r.Intn(60))
		}
		want, reduced, red := minimizePerFD(fds)
		got := Minimize(fds)
		if !sameFDs(got, want) {
			t.Fatalf("trial %d (%d attributes): grouped cover %v, per-FD cover %v, input %v",
				trial, nAttrs, got, want, fds)
		}
		if !EquivalentCovers(fds, got) {
			t.Fatalf("trial %d: cover %v is not equivalent to %v", trial, got, fds)
		}
		if reduced {
			reducedLists++
		} else {
			plainLists++
		}
		redundant += red
		words[(nAttrs+63)/64]++
	}
	if reducedLists == 0 || plainLists == 0 || redundant == 0 {
		t.Fatalf("%d lists reduced an LHS, %d did not, %d FDs were redundant: the inputs do not exercise both paths",
			reducedLists, plainLists, redundant)
	}
	if len(words) != 3 {
		t.Fatalf("universe widths %v: want one, two and three words", words)
	}
}

// TestReduceLHSMatchesPerQuery: the memoised reduction over the LHS
// groups makes the same decisions as one implication query per attribute
// over the FDs, FD by FD.
func TestReduceLHSMatchesPerQuery(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	reduced := 0
	for trial := 0; trial < 300; trial++ {
		nAttrs := 2 + r.Intn(140) // crosses the one- and two-word boundaries
		g := groupByLHS(keyedFDs(r, nAttrs))
		work := g.fds
		got := append([]FD(nil), work...)
		want := append([]FD(nil), work...)
		changed := reduceLHS(NewFDIndex(g.lhs), got)
		reduceLHSPerQuery(want)
		if changed != !sameFDs(want, work) {
			t.Fatalf("trial %d: reduceLHS reports changed=%v", trial, changed)
		}
		for i := range want {
			if !got[i].Lhs.Equal(want[i].Lhs) || !got[i].Rhs.Equal(want[i].Rhs) {
				t.Fatalf("trial %d, FD %d: memoised reduction %v → %v, per-query %v → %v",
					trial, i, got[i].Lhs.Positions(), got[i].Rhs.Positions(),
					want[i].Lhs.Positions(), want[i].Rhs.Positions())
			}
			if !want[i].Lhs.Equal(work[i].Lhs) {
				reduced++
			}
		}
	}
	if reduced == 0 {
		t.Fatal("no LHS was reduced: the inputs do not exercise the reduction")
	}
}

// randomFragment draws a fragment of at most maxCard attributes around the
// attributes of a few FDs, so that closures reach inside it.
func randomFragment(r *rand.Rand, fds []FD, nAttrs, maxCard int) AttrSet {
	for {
		var frag AttrSet
		for k := 0; k < 1+r.Intn(3); k++ {
			f := fds[r.Intn(len(fds))]
			frag = frag.Union(f.Lhs).Union(f.Rhs)
		}
		frag = frag.Union(randomSet(r, nAttrs, r.Intn(4)))
		if c := frag.Card(); c >= 1 && c <= maxCard {
			return frag
		}
	}
}

// TestIndexedKeyMatchesProjectedKey: for a fragment within the exact
// projection's cut-off, the greedy key over the full index equals the
// greedy key over the projected FDs.
func TestIndexedKeyMatchesProjectedKey(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 200; trial++ {
		nAttrs := 2 + r.Intn(140)
		fds := keyedFDs(r, nAttrs)
		ix := NewFDIndex(fds)
		frag := randomFragment(r, fds, nAttrs, maxProjectionAttrs)
		got := ix.CandidateKey(frag)
		want := CandidateKey(ProjectFDs(fds, frag), frag)
		if !got.Equal(want) {
			t.Fatalf("trial %d: fragment %v: indexed key %v, projected key %v",
				trial, frag.Positions(), got.Positions(), want.Positions())
		}
	}
}

// TestProjectedViolationMatchesProjection: the violation pre-check agrees
// with a scan of the exact projection for an FD whose LHS is not a
// superkey of the fragment. One trial in ten draws fragments up to the
// cut-off; the rest stay at 12 attributes, where projecting is cheap.
func TestProjectedViolationMatchesProjection(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	seen := map[bool]int{}
	for trial := 0; trial < 300; trial++ {
		nAttrs := 2 + r.Intn(140)
		fds := keyedFDs(r, nAttrs)
		ix := NewFDIndex(fds)
		maxCard := 12
		if trial%10 == 0 {
			maxCard = maxProjectionAttrs
		}
		frag := randomFragment(r, fds, nAttrs, maxCard)
		want := false
		for _, f := range ProjectFDs(fds, frag) {
			if !ix.Implies(FD{Lhs: f.Lhs, Rhs: frag}) {
				want = true
				break
			}
		}
		if got := projectedViolation(ix, frag); got != want {
			t.Fatalf("trial %d: fragment %v: pre-check says violation=%v, projection says %v",
				trial, frag.Positions(), got, want)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("outcomes %v: the fragments do not exercise both verdicts", seen)
	}
}

// TestThreeNFDeterministic: two LHS groups with the same attributes keep
// the one first in the cover, so every call returns one decomposition.
func TestThreeNFDeterministic(t *testing.T) {
	s := MustSchema("r", "a", "b", "c", "d")
	fds := []FD{
		MustParseFD(s, "a -> b"),
		MustParseFD(s, "b -> a"),
		MustParseFD(s, "c -> d"),
		MustParseFD(s, "d -> c"),
	}
	const want = "R1(a, b) key {a}\nR2(b, d) key {b, d}\nR3(c, d) key {c}\n"
	for i := 0; i < 200; i++ {
		if got := FormatFragments(s, ThreeNF(fds, s.All())); got != want {
			t.Fatalf("call %d:\n%swant:\n%s", i, got, want)
		}
	}
}
