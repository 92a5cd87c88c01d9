package core

import (
	"math/rand"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
)

// explain runs Explain unbudgeted, which cannot abort.
func explain(t *testing.T, e *Engine, fd rel.FD) []*Explanation {
	t.Helper()
	exs, err := e.Explain(nil, fd)
	if err != nil {
		t.Fatal(err)
	}
	return exs
}

// TestExplainPaperExample42Positive reproduces the narrative of Example
// 4.2's positive run: x_r keyed by the ε-rule, x_a keyed by @isbn, x₅
// unique under x_a via φ7.
func TestExplainPaperExample42Positive(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.Transform().Rule("book"))
	fd := rel.MustParseFD(e.Rule().Schema, "isbn -> contact")
	exs := explain(t, e, fd)
	if len(exs) != 1 {
		t.Fatalf("explanations = %d", len(exs))
	}
	ex := exs[0]
	if !ex.Propagated || !ex.KeyFound || !ex.NullSafe {
		t.Fatalf("verdict wrong: %+v", ex)
	}
	narrative := ex.String()
	for _, want := range []string{
		"PROPAGATED",
		"root is keyed: Σ ⊨ (ε, (ε, {}))",
		"xa is keyed: Σ ⊨ (ε, (//book, {@isbn}))",
		"RHS variable unique under xa: Σ ⊨ (//book, (author/contact, {}))",
		"fields {isbn} guaranteed non-null at xa",
	} {
		if !strings.Contains(narrative, want) {
			t.Errorf("narrative missing %q:\n%s", want, narrative)
		}
	}
}

// TestExplainPaperExample42Negative reproduces the failing run: the
// chapter and section ancestors cannot be keyed absolutely.
func TestExplainPaperExample42Negative(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.Transform().Rule("section"))
	fd := rel.MustParseFD(e.Rule().Schema, "inChapt, number -> name")
	ex := explain(t, e, fd)[0]
	if ex.Propagated {
		t.Fatal("verdict must be negative")
	}
	narrative := ex.String()
	for _, want := range []string{
		"NOT PROPAGATED",
		"zc is not keyed: Σ ⊭ (ε, (//book/chapter, {@number}))",
		"no keyed ancestor",
	} {
		if !strings.Contains(narrative, want) {
			t.Errorf("narrative missing %q:\n%s", want, narrative)
		}
	}
}

// TestExplainNullSafetyFailure: a LHS field populated by an element can
// never be discharged.
func TestExplainNullSafetyFailure(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.Transform().Rule("book"))
	fd := rel.MustParseFD(e.Rule().Schema, "isbn, title -> contact")
	ex := explain(t, e, fd)[0]
	if ex.Propagated || ex.NullSafe {
		t.Fatal("verdict must fail on null safety")
	}
	if !strings.Contains(ex.String(), "fields {title} cannot be guaranteed non-null") {
		t.Errorf("narrative:\n%s", ex)
	}
}

// TestExplainTrivial: the trivial branch is reported.
func TestExplainTrivial(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.Transform().Rule("book"))
	fd := rel.MustParseFD(e.Rule().Schema, "isbn -> isbn")
	ex := explain(t, e, fd)[0]
	if !ex.Propagated {
		t.Fatal("isbn → isbn must be propagated")
	}
	if !strings.Contains(ex.String(), "RHS field appears on the LHS") {
		t.Errorf("narrative:\n%s", ex)
	}
}

// TestExplainCompoundRHS: one explanation per RHS attribute.
func TestExplainCompoundRHS(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.Transform().Rule("chapter"))
	fd := rel.MustParseFD(e.Rule().Schema, "inBook, number -> name, inBook")
	exs := explain(t, e, fd)
	if len(exs) != 2 {
		t.Fatalf("explanations = %d, want 2", len(exs))
	}
}

// TestExplainAgreesWithPropagates: on random workloads and FDs, Explain's
// verdict must equal Propagates' (they share the decision procedure).
func TestExplainAgreesWithPropagates(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 150; trial++ {
		w := genWorkload(r)
		e := NewEngine(w.sigma, w.rule)
		n := w.rule.Schema.Len()
		for q := 0; q < 10; q++ {
			var lhs rel.AttrSet
			for i := 0; i < n; i++ {
				if r.Intn(3) == 0 {
					lhs = lhs.With(i)
				}
			}
			fd := rel.NewFD(lhs, rel.AttrSet{}.With(r.Intn(n)))
			want := e.Propagates(fd)
			ex := explain(t, e, fd)[0]
			if ex.Propagated != want {
				t.Fatalf("Explain=%v Propagates=%v for %s\nrule:\n%s\nkeys: %v\n%s",
					ex.Propagated, want, fd.Format(w.rule.Schema), w.rule, w.sigma, ex)
			}
		}
	}
}
