package core

import (
	"testing"

	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
)

func mustRule(t *testing.T, src string) *transform.Rule {
	t.Helper()
	tr, err := transform.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Rules[0]
}

// TestPropagationEmptySigma: with no keys at all, only FDs whose RHS is
// constant-by-structure (root attributes, unique-by-ε reasoning) hold.
func TestPropagationEmptySigma(t *testing.T) {
	rule := mustRule(t, `
rule t(id: x, val: y) {
  x := root / @id
  e := root / item
  y := e / @v
}`)
	e := NewEngine(nil, rule)
	// Root attributes are constants even with empty Σ.
	if !e.Propagates(rel.MustParseFD(rule.Schema, "-> id")) {
		t.Error("∅ → id should hold: the root is unique")
	}
	// But nothing else does.
	if e.Propagates(rel.MustParseFD(rule.Schema, "-> val")) {
		t.Error("∅ → val must fail: many items possible")
	}
	if e.Propagates(rel.MustParseFD(rule.Schema, "id -> val")) {
		t.Error("id → val must fail")
	}
}

// TestPropagationDeepRelativeLeafPaths: uniqueness across multi-step leaf
// paths needs keys at every step (the composition rule).
func TestPropagationDeepRelativeLeafPaths(t *testing.T) {
	rule := mustRule(t, `
rule t(id: x, deep: d) {
  e := root / //rec
  x := e / @id
  m := e / meta
  d := m / info
}`)
	sigmaFull := xmlkey.MustParseSet(`
		(ε, (//rec, {@id}))
		(//rec, (meta, {}))
		(//rec/meta, (info, {}))
	`)
	fd := rel.MustParseFD(rule.Schema, "id -> deep")
	if !Propagates(sigmaFull, rule, fd) {
		t.Error("full uniqueness chain must propagate id → deep")
	}
	// Remove either uniqueness key and it fails.
	if Propagates(sigmaFull[:2], rule, fd) {
		t.Error("missing info-uniqueness must block propagation")
	}
	if Propagates([]xmlkey.Key{sigmaFull[0], sigmaFull[2]}, rule, fd) {
		t.Error("missing meta-uniqueness must block propagation")
	}
}

// TestPropagationSharedKeyAcrossLevels: one σ key can serve several
// table-tree nodes when containment allows it.
func TestPropagationSharedKeyAcrossLevels(t *testing.T) {
	rule := mustRule(t, `
rule t(outer: a, inner: b, leaf: c) {
  o := root / grp
  a := o / @id
  i := o / grp
  b := i / @id
  n := i / name
  c := n / @id
}`)
	// One key covers grp elements at any depth relative to their parent...
	sigma := xmlkey.MustParseSet(`
		(ε, (//grp, {@id}))
		(//grp, (name, {}))
	`)
	// The absolute key identifies both levels at once, so (outer, inner)
	// is more than needed: inner alone determines leaf.
	e := NewEngine(sigma, rule)
	if !e.Propagates(rel.MustParseFD(rule.Schema, "inner -> leaf")) {
		t.Error("inner grp is globally keyed; inner → leaf must hold")
	}
	if !e.Propagates(rel.MustParseFD(rule.Schema, "outer -> outer")) {
		t.Error("outer → outer should hold (guarded trivial FD)")
	}
	cover := e.MinimumCover()
	// The cover must reflect the global key: inner → leaf without outer.
	if !rel.Implies(cover, rel.MustParseFD(rule.Schema, "inner -> leaf")) {
		t.Errorf("cover misses inner → leaf:\n%v", e.CoverAsStrings(cover))
	}
	if !rel.EquivalentCovers(cover, e.NaiveCover()) {
		t.Error("cover must match naive")
	}
}

// TestPropagationRootDescendantRule: rules whose first hop is "//" on a
// non-root variable are rejected by Def 2.2, but "root / a//b" is fine and
// must work end to end... (// is allowed only from the root).
func TestPropagationRootDescendantRule(t *testing.T) {
	rule := mustRule(t, `
rule t(k: x, v: y) {
  e := root / a//b
  x := e / @k
  y := e / @v
}`)
	sigma := xmlkey.MustParseSet(`
		(ε, (a//b, {@k}))
		(ε, (//b, {@v}))
	`)
	if !Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "k -> v")) {
		t.Error("k → v must propagate: a//b nodes are keyed by @k and @v exists")
	}
	// With a narrower key the containment fails: x//b ⊉ a//b.
	sigma2 := xmlkey.MustParseSet(`
		(ε, (x//b, {@k}))
		(ε, (//b, {@v}))
	`)
	if Propagates(sigma2, rule, rel.MustParseFD(rule.Schema, "k -> v")) {
		t.Error("key over x//b must not cover a//b targets")
	}
}

// TestGPropagatesEmptyRHS: degenerate FDs behave consistently across both
// checkers.
func TestGPropagatesDegenerateFDs(t *testing.T) {
	e := NewEngine(nil, mustRule(t, `
rule t(a: x) {
  x := root / @a
}`))
	empty := rel.NewFD(rel.AttrSet{}, rel.AttrSet{})
	if !e.Propagates(empty) || !e.GPropagates(empty) {
		t.Error("∅ → ∅ is vacuously propagated by both checkers")
	}
}

// TestPathBetweenGuardNonAncestor is the regression test for the discarded
// PathBetween ok-flag in the propagation walk: for variables NOT in
// ancestor relation (sibling branches) PathBetween fails with a zero-value
// path, and that zero value reads as ε — a key with an ε target is implied
// by ANY Σ, so feeding it to Implies unchecked silently proves a bogus
// uniqueness fact. Every Implies call sites now checks the flag.
func TestPathBetweenGuardNonAncestor(t *testing.T) {
	rule := mustRule(t, `
rule t(a: x, b: y) {
  p := root / left
  x := p / @a
  q := root / right
  y := q / @b
}`)
	// left and right are sibling branches: no path between them.
	zero, ok := rule.PathBetween("p", "q")
	if ok {
		t.Fatal("PathBetween must report ok=false for sibling variables")
	}
	// The hazard itself: the zero-value path is ε, and an ε-target key is
	// trivially implied even by an empty Σ.
	if !xmlkey.Implies(nil, xmlkey.New("", rule.PathFromRoot("p"), zero)) {
		t.Fatal("zero-value path should read as ε (trivially implied) — the hazard being guarded")
	}
	// End-to-end: with existence-only keys and no uniqueness, nothing may
	// propagate across the sibling branches in either direction, and the
	// cover must stay empty.
	sigma := xmlkey.MustParseSet(`
		(ε, (//left, {@a}))
		(ε, (//right, {@b}))
	`)
	e := NewEngine(sigma, rule)
	if e.Propagates(rel.MustParseFD(rule.Schema, "a -> b")) {
		t.Error("a → b must not propagate: right nodes are not determined by left keys")
	}
	if e.Propagates(rel.MustParseFD(rule.Schema, "b -> a")) {
		t.Error("b → a must not propagate")
	}
	for _, ann := range annotated(t, e) {
		if ann.FD.Rhs.Card() != 0 {
			// Covers here may only relate each branch to its own key.
			lhsVar, _ := rule.VarOf(rule.Schema.Attrs[firstAttr(ann.FD.Lhs)])
			rhsVar, _ := rule.VarOf(rule.Schema.Attrs[firstAttr(ann.FD.Rhs)])
			if lhsVar != rhsVar {
				t.Errorf("cover crosses sibling branches: %s", ann.FD.Format(rule.Schema))
			}
		}
	}
}

func firstAttr(s rel.AttrSet) int {
	first := -1
	s.ForEach(func(i int) {
		if first < 0 {
			first = i
		}
	})
	return first
}

// TestMinimumCoverSigmaWithIrrelevantKeys: keys over labels absent from
// the table tree must not perturb the cover.
func TestMinimumCoverSigmaWithIrrelevantKeys(t *testing.T) {
	rule := mustRule(t, `
rule t(k: x, v: y) {
  e := root / //item
  x := e / @k
  n := e / tag
  y := n / @v
}`)
	base := xmlkey.MustParseSet(`
		(ε, (//item, {@k}))
		(//item, (tag, {}))
	`)
	noise := xmlkey.MustParseSet(`
		(ε, (//galaxy, {@z}))
		(//planet, (moon, {@m}))
		(//item/unrelated, (thing, {}))
	`)
	cover1 := NewEngine(base, rule).MinimumCover()
	cover2 := NewEngine(append(append([]xmlkey.Key{}, base...), noise...), rule).MinimumCover()
	if !rel.EquivalentCovers(cover1, cover2) {
		t.Errorf("irrelevant keys changed the cover:\n%v\nvs\n%v",
			NewEngine(base, rule).CoverAsStrings(cover1),
			NewEngine(base, rule).CoverAsStrings(cover2))
	}
}
