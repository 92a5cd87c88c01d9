package rel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func universalSchema() *Schema {
	// Example 3.1's universal relation U.
	return MustSchema("U",
		"bookIsbn", "bookTitle", "bookAuthor", "authContact",
		"chapNum", "chapName", "secNum", "secName")
}

func paperCover(s *Schema) []FD {
	// The minimum cover computed in Example 3.1.
	return []FD{
		MustParseFD(s, "bookIsbn -> bookTitle"),
		MustParseFD(s, "bookIsbn -> authContact"),
		MustParseFD(s, "bookIsbn, chapNum -> chapName"),
		MustParseFD(s, "bookIsbn, chapNum, secNum -> secName"),
	}
}

func TestParseFD(t *testing.T) {
	s := universalSchema()
	f := MustParseFD(s, "bookIsbn, chapNum → chapName")
	if got := f.Format(s); got != "bookIsbn, chapNum → chapName" {
		t.Errorf("Format = %q", got)
	}
	if _, err := ParseFD(s, "no arrow here"); err == nil {
		t.Error("missing arrow should error")
	}
	if _, err := ParseFD(s, "bookIsbn -> "); err == nil {
		t.Error("empty RHS should error")
	}
	if _, err := ParseFD(s, "bogus -> chapName"); err == nil {
		t.Error("unknown attribute should error")
	}
	// Empty LHS is legal: "∅ → A" states A is constant.
	f2 := MustParseFD(s, "-> bookTitle")
	if !f2.Lhs.IsEmpty() {
		t.Error("empty LHS should parse to empty set")
	}
}

func TestClosureAndImplies(t *testing.T) {
	s := universalSchema()
	fds := paperCover(s)
	x := s.MustSet("bookIsbn", "chapNum", "secNum")
	cl := Closure(fds, x)
	want := s.MustSet("bookIsbn", "bookTitle", "authContact", "chapNum", "chapName", "secNum", "secName")
	if !cl.Equal(want) {
		t.Errorf("closure = %v, want %v", s.Names(cl), s.Names(want))
	}
	// (bookIsbn, chapNum, secNum) determines everything except bookAuthor.
	if Implies(fds, MustParseFD(s, "bookIsbn, chapNum, secNum -> bookAuthor")) {
		t.Error("bookAuthor must not be determined (multiple authors per book)")
	}
	if !Implies(fds, MustParseFD(s, "bookIsbn, chapNum -> bookTitle, chapName")) {
		t.Error("augmented transitivity should hold")
	}
	if !Implies(fds, MustParseFD(s, "bookIsbn -> bookIsbn")) {
		t.Error("reflexivity should hold")
	}
	if !ImpliesAll(fds, fds) {
		t.Error("a set implies itself")
	}
	if ImpliesAll(fds, []FD{MustParseFD(s, "bookTitle -> bookIsbn")}) {
		t.Error("title does not determine isbn (two books named XML!)")
	}
}

func TestMinimizeRemovesRedundancy(t *testing.T) {
	s := MustSchema("r", "a", "b", "c", "d")
	fds := []FD{
		MustParseFD(s, "a -> b"),
		MustParseFD(s, "b -> c"),
		MustParseFD(s, "a -> c"),    // redundant (transitivity)
		MustParseFD(s, "a, b -> d"), // b extraneous given a -> b
		MustParseFD(s, "a -> b, c"), // redundant + compound RHS
	}
	min := Minimize(fds)
	if !EquivalentCovers(min, fds) {
		t.Fatalf("Minimize changed the closure:\n%s", FormatFDs(s, min))
	}
	if !IsNonRedundant(min) {
		t.Fatalf("Minimize left redundancy:\n%s", FormatFDs(s, min))
	}
	for _, f := range min {
		if f.Rhs.Card() != 1 {
			t.Errorf("non-singleton RHS in cover: %s", f.Format(s))
		}
		if f.Format(s) == "a, b → d" {
			t.Errorf("extraneous attribute b not removed: %s", f.Format(s))
		}
	}
	if len(min) != 3 { // a→b, b→c, a→d
		t.Errorf("cover size = %d, want 3:\n%s", len(min), FormatFDs(s, min))
	}
}

func TestMinimizeDropsTrivial(t *testing.T) {
	s := MustSchema("r", "a", "b")
	fds := []FD{MustParseFD(s, "a, b -> a"), MustParseFD(s, "a -> b")}
	min := Minimize(fds)
	if len(min) != 1 || min[0].Format(s) != "a → b" {
		t.Errorf("Minimize = %s", FormatFDs(s, min))
	}
}

func TestMinimizeEmptyAndSingle(t *testing.T) {
	if got := Minimize(nil); len(got) != 0 {
		t.Errorf("Minimize(nil) = %v", got)
	}
	s := MustSchema("r", "a", "b")
	one := []FD{MustParseFD(s, "a -> b")}
	if got := Minimize(one); len(got) != 1 {
		t.Errorf("Minimize singleton = %v", got)
	}
}

// TestMinimizeProperty: on random FD sets, Minimize yields an equivalent,
// non-redundant cover with singleton RHSs and no extraneous LHS attributes.
func TestMinimizeProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	s := MustSchema("r", "a", "b", "c", "d", "e")
	for trial := 0; trial < 300; trial++ {
		var fds []FD
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			lhs := randSet(r, 3).Intersect(s.All())
			rhs := randSet(r, 2).Intersect(s.All())
			if rhs.IsEmpty() {
				rhs = AttrSet{}.With(r.Intn(5))
			}
			fds = append(fds, FD{Lhs: lhs, Rhs: rhs})
		}
		min := Minimize(fds)
		if !EquivalentCovers(min, fds) {
			t.Fatalf("not equivalent: %s vs %s", FormatFDs(s, fds), FormatFDs(s, min))
		}
		if !IsNonRedundant(min) {
			t.Fatalf("redundant cover: %s", FormatFDs(s, min))
		}
		for _, f := range min {
			if f.Rhs.Card() != 1 {
				t.Fatalf("non-singleton RHS: %s", f.Format(s))
			}
			if f.IsTrivial() {
				t.Fatalf("trivial FD in cover: %s", f.Format(s))
			}
			// No extraneous LHS attributes.
			for _, b := range f.Lhs.Positions() {
				if Implies(min, FD{Lhs: f.Lhs.Without(b), Rhs: f.Rhs}) {
					t.Fatalf("extraneous attr in %s", f.Format(s))
				}
			}
		}
	}
}

// TestGroupByLHS: the grouping pass keeps the FDs that splitting the
// RHSs, dropping repeated FDs and dropping trivial FDs keep, in the same
// order, and groups them by LHS in first-seen order, each group's RHS the
// union of its FDs' attributes.
func TestGroupByLHS(t *testing.T) {
	s := MustSchema("r", "a", "b", "c")
	fds := []FD{
		MustParseFD(s, "a, b -> a, c"), // a is trivial
		MustParseFD(s, "a -> b, c"),
		MustParseFD(s, "b, a -> c"), // repeats (a, b) → c
		MustParseFD(s, "a -> b"),    // repeats a → b
		MustParseFD(s, "c -> c"),    // trivial: no group
	}
	g := groupByLHS(fds)
	var got []string
	for i, f := range g.fds {
		got = append(got, fmt.Sprintf("%s @%d", f.Format(s), g.group[i]))
	}
	want := []string{"a, b → c @0", "a → b @1", "a → c @1"}
	if strings.Join(got, "; ") != strings.Join(want, "; ") {
		t.Fatalf("groupByLHS kept %q, want %q", got, want)
	}
	if len(g.lhs) != 2 || g.lhs[0].Format(s) != "a, b → c" || g.lhs[1].Format(s) != "a → b, c" {
		t.Fatalf("groups %v", g.lhs)
	}

	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 500; trial++ {
		nAttrs := 2 + r.Intn(190)
		fds := randomFDs(r, nAttrs, r.Intn(60))
		if trial%2 == 0 {
			fds = keyedFDs(r, nAttrs)
		}
		g := groupByLHS(fds)
		if want := splitNonTrivial(fds); !sameFDs(g.fds, want) {
			t.Fatalf("trial %d: groupByLHS kept %v, split, dedup and trivial filter keep %v", trial, g.fds, want)
		}
		union := make([]AttrSet, len(g.lhs))
		next := int32(0)
		for i, f := range g.fds {
			gi := g.group[i]
			if gi > next {
				t.Fatalf("trial %d: group %d used before group %d", trial, gi, next)
			}
			if gi == next {
				next++
			}
			if !g.lhs[gi].Lhs.Equal(f.Lhs) {
				t.Fatalf("trial %d: FD %d with LHS %v in group of %v", trial, i, f.Lhs.Positions(), g.lhs[gi].Lhs.Positions())
			}
			union[gi] = union[gi].Union(f.Rhs)
		}
		if int(next) != len(g.lhs) {
			t.Fatalf("trial %d: %d groups, %d used", trial, len(g.lhs), next)
		}
		for gi, u := range union {
			if !g.lhs[gi].Rhs.Equal(u) {
				t.Fatalf("trial %d: group %d RHS %v, its FDs' union %v", trial, gi, g.lhs[gi].Rhs.Positions(), u.Positions())
			}
			for gj := 0; gj < gi; gj++ {
				if g.lhs[gj].Lhs.Equal(g.lhs[gi].Lhs) {
					t.Fatalf("trial %d: groups %d and %d share LHS %v", trial, gj, gi, g.lhs[gi].Lhs.Positions())
				}
			}
		}
	}
}

func TestEquivalentCovers(t *testing.T) {
	s := MustSchema("r", "a", "b", "c")
	f := []FD{MustParseFD(s, "a -> b"), MustParseFD(s, "b -> c")}
	g := []FD{MustParseFD(s, "a -> b, c"), MustParseFD(s, "b -> c")}
	if !EquivalentCovers(f, g) {
		t.Error("covers should be equivalent")
	}
	h := []FD{MustParseFD(s, "a -> b")}
	if EquivalentCovers(f, h) {
		t.Error("covers should differ")
	}
}

func TestFormatFDsDeterministic(t *testing.T) {
	s := MustSchema("r", "a", "b", "c")
	f1 := []FD{MustParseFD(s, "b -> c"), MustParseFD(s, "a -> b")}
	f2 := []FD{MustParseFD(s, "a -> b"), MustParseFD(s, "b -> c")}
	if FormatFDs(s, f1) != FormatFDs(s, f2) {
		t.Error("FormatFDs should not depend on input order")
	}
	if !strings.Contains(FormatFDs(s, f1), "a → b") {
		t.Error("missing FD in output")
	}
}
