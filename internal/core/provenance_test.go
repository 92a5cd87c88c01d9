package core

import (
	"strings"
	"testing"

	"xkprop/internal/paperdata"
)

// annotated runs AnnotatedCover unbudgeted, which cannot abort.
func annotated(t *testing.T, e *Engine) []AnnotatedFD {
	t.Helper()
	anns, err := e.AnnotatedCover(nil)
	if err != nil {
		t.Fatal(err)
	}
	return anns
}

// TestAnnotatedCoverPaperExample51: the provenance of the secName FD is
// exactly Example 5.1's narration — φ1 keys the book, φ2 the chapter
// relative to it, φ6 the section relative to that, and φ5 pins the name.
func TestAnnotatedCoverPaperExample51(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	anns := annotated(t, e)
	if len(anns) != 4 {
		t.Fatalf("annotated cover size = %d", len(anns))
	}
	var sec *AnnotatedFD
	for i := range anns {
		if anns[i].FD.Format(e.Rule().Schema) == "bookIsbn, chapNum, secNum → secName" {
			sec = &anns[i]
		}
	}
	if sec == nil {
		t.Fatalf("secName FD missing from annotated cover: %v", anns)
	}
	if sec.Node != "zs" {
		t.Errorf("secName FD should identify the zs node, got %s", sec.Node)
	}
	wantChain := []string{"φ1", "φ2", "φ6"}
	if len(sec.Chain) != len(wantChain) {
		t.Fatalf("chain = %v, want %v", sec.Chain, wantChain)
	}
	for i, w := range wantChain {
		if sec.Chain[i] != w {
			t.Errorf("chain[%d] = %s, want %s", i, sec.Chain[i], w)
		}
	}
	if !strings.Contains(sec.Unique, "(//book/chapter/section, (name, {}))") {
		t.Errorf("uniqueness fact = %q", sec.Unique)
	}
	out := sec.Format(e.Rule().Schema)
	for _, w := range []string{"identifies table-tree node zs", "φ1 , φ2 , φ6", "RHS unique under zs"} {
		if !strings.Contains(out, w) {
			t.Errorf("formatted annotation missing %q:\n%s", w, out)
		}
	}
}

// TestAnnotatedCoverAllMembersHaveProvenance: every cover FD must come
// with a chain (the cover was built from exactly these chains).
func TestAnnotatedCoverAllMembersHaveProvenance(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	for _, a := range annotated(t, e) {
		if a.Node == "" || len(a.Chain) == 0 || a.Unique == "" {
			t.Errorf("FD %s lacks provenance: %+v", a.FD.Format(e.Rule().Schema), a)
		}
	}
}

// TestAnnotatedCoverBookFDs: the book-level FDs chain through φ1 only.
func TestAnnotatedCoverBookFDs(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	for _, a := range annotated(t, e) {
		f := a.FD.Format(e.Rule().Schema)
		if f == "bookIsbn → bookTitle" || f == "bookIsbn → authContact" {
			if len(a.Chain) != 1 || a.Chain[0] != "φ1" {
				t.Errorf("%s: chain = %v, want [φ1]", f, a.Chain)
			}
			if a.Node != "xb" {
				t.Errorf("%s: node = %s, want xb", f, a.Node)
			}
		}
	}
}
