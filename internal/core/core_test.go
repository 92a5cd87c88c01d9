package core

import (
	"reflect"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
)

// TestPaperExample42Positive: isbn → contact on Rule(book) is propagated.
func TestPaperExample42Positive(t *testing.T) {
	sigma := paperdata.Keys()
	rule := paperdata.Transform().Rule("book")
	fd := rel.MustParseFD(rule.Schema, "isbn -> contact")
	if !Propagates(sigma, rule, fd) {
		t.Fatal("Example 4.2: isbn → contact must be propagated")
	}
}

// TestPaperExample42Negative: (inChapt, number) → name on Rule(section) is
// not propagated (chapter numbers only identify chapters within a book).
func TestPaperExample42Negative(t *testing.T) {
	sigma := paperdata.Keys()
	rule := paperdata.Transform().Rule("section")
	fd := rel.MustParseFD(rule.Schema, "inChapt, number -> name")
	if Propagates(sigma, rule, fd) {
		t.Fatal("Example 4.2: (inChapt, number) → name must NOT be propagated")
	}
}

// TestPaperExample11: the key of the refined Chapter design of Fig 2(b) —
// (isbn, chapterNum) → chapterName — is propagated, settling Example 1.1's
// designers' doubt; the initial design's key (Fig 2(a)) is not.
func TestPaperExample11(t *testing.T) {
	sigma := paperdata.Keys()
	refined := paperdata.Fig2bRule()
	fd := rel.MustParseFD(refined.Schema, "isbn, chapterNum -> chapterName")
	if !Propagates(sigma, refined, fd) {
		t.Error("refined design's key must be propagated")
	}
	initial := paperdata.Fig2aRule()
	fd2 := rel.MustParseFD(initial.Schema, "bookTitle, chapterNum -> chapterName")
	if Propagates(sigma, initial, fd2) {
		t.Error("initial design's key must not be propagated (two books may share a title)")
	}
}

// TestPaperChapterRuleKey: on Rule(chapter) of Example 2.4, (inBook,
// number) → name is propagated — the FD from Example 1.1's analysis.
func TestPaperChapterRuleKey(t *testing.T) {
	sigma := paperdata.Keys()
	rule := paperdata.Transform().Rule("chapter")
	if !Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "inBook, number -> name")) {
		t.Error("(inBook, number) → name must be propagated")
	}
	// The paper states Algorithm propagation for single-attribute RHSs
	// ("assume ψ is of the form X → A"); we treat a compound RHS as the
	// conjunction of its single-attribute FDs. Under that reading,
	// (inBook, number) → (inBook, number, name) is NOT propagated: a
	// chapterless book yields a tuple with number NULL but inBook non-null,
	// violating condition 1 for the inBook component — under §3's null
	// semantics even reflexivity is not unrestricted.
	if Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "inBook, number -> inBook, number, name")) {
		t.Error("compound RHS with nullable LHS component must not be propagated")
	}
	if !Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "inBook, number -> name")) {
		t.Error("single-attribute RHS must be propagated")
	}
	if Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "number -> name")) {
		t.Error("number alone must not determine name")
	}
}

// TestPropagatesTrivialFDNeedsExistence: A ∈ X alone is not enough under
// the null semantics — every X field must be existence-guaranteed.
func TestPropagatesTrivialFDNeedsExistence(t *testing.T) {
	sigma := paperdata.Keys()
	rule := paperdata.Transform().Rule("book")
	// isbn → isbn: @isbn guaranteed by φ1.
	if !Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "isbn -> isbn")) {
		t.Error("isbn → isbn should be propagated")
	}
	// (title, isbn) → isbn: title is populated by an element, which no key
	// guarantees; condition 1 can be violated (isbn non-null, title null
	// would be fine, but title ∈ X cannot be discharged).
	if Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "title, isbn -> isbn")) {
		t.Error("title ∈ X cannot be discharged: element-populated field")
	}
	// (isbn, contact) → contact: contact is element-populated too.
	if Propagates(sigma, rule, rel.MustParseFD(rule.Schema, "isbn, contact -> contact")) {
		t.Error("contact ∈ X cannot be discharged")
	}
}

// TestPaperExample31MinimumCover: minimumCover on Rule(U) reproduces the
// paper's cover verbatim:
//
//	bookIsbn → bookTitle
//	bookIsbn → authContact
//	bookIsbn, chapNum → chapName
//	bookIsbn, chapNum, secNum → secName
func TestPaperExample31MinimumCover(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	cover := e.MinimumCover()
	got := e.CoverAsStrings(cover)
	want := []string{
		"bookIsbn → authContact",
		"bookIsbn → bookTitle",
		"bookIsbn, chapNum → chapName",
		"bookIsbn, chapNum, secNum → secName",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("MinimumCover =\n  %v\nwant\n  %v", got, want)
	}
	// And it is a genuine minimum cover: non-redundant.
	if !rel.IsNonRedundant(cover) {
		t.Error("cover is redundant")
	}
	_, paperFDs := paperdata.PaperCover()
	if !rel.EquivalentCovers(cover, paperFDs) {
		t.Error("cover not equivalent to the paper's")
	}
}

// TestPaperExample31NaiveAgrees: Algorithm naive computes an equivalent
// cover on the paper's universal relation.
func TestPaperExample31NaiveAgrees(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	naive := e.NaiveCover()
	min := e.MinimumCover()
	if !rel.EquivalentCovers(naive, min) {
		t.Fatalf("naive ≢ minimumCover:\nnaive:\n%v\nmin:\n%v",
			e.CoverAsStrings(naive), e.CoverAsStrings(min))
	}
	if !rel.IsNonRedundant(naive) {
		t.Error("naive cover is redundant")
	}
}

// TestPaperExample12Decomposition: the BCNF refinement driven by the cover
// (Example 1.2 / 3.1).
func TestPaperExample12Decomposition(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	cover := e.MinimumCover()
	s := e.Rule().Schema
	frags := rel.BCNF(cover, s.All())
	if !rel.LosslessJoin(cover, s.All(), frags) {
		t.Error("BCNF decomposition must be lossless")
	}
	// The paper's book, chapter and section fragments appear verbatim.
	for _, wantAttrs := range [][]string{
		{"bookIsbn", "bookTitle", "authContact"},
		{"bookIsbn", "chapNum", "chapName"},
		{"bookIsbn", "chapNum", "secNum", "secName"},
	} {
		w := s.MustSet(wantAttrs...)
		found := false
		for _, f := range frags {
			if f.Attrs.Equal(w) {
				found = true
			}
		}
		if !found {
			t.Errorf("missing fragment %v:\n%s", wantAttrs, rel.FormatFragments(s, frags))
		}
	}
}

// TestGPropagatesAgreesOnPaperFDs: GminimumCover and propagation agree on
// a spread of FDs over the universal relation.
func TestGPropagatesAgreesOnPaperFDs(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	s := e.Rule().Schema
	for _, text := range []string{
		"bookIsbn -> bookTitle",
		"bookIsbn -> authContact",
		"bookIsbn -> bookAuthor",
		"bookIsbn, chapNum -> chapName",
		"bookIsbn, chapNum, secNum -> secName",
		"chapNum -> chapName",
		"bookTitle -> bookIsbn",
		"bookIsbn, chapNum -> secName",
		"bookIsbn -> bookIsbn",
		"bookIsbn, chapNum, secNum -> bookTitle",
		"secNum -> secName",
		"bookIsbn, secNum -> secName",
	} {
		fd := rel.MustParseFD(s, text)
		p := e.Propagates(fd)
		g := e.GPropagates(fd)
		if p != g {
			t.Errorf("%s: propagation=%v, GminimumCover=%v", text, p, g)
		}
	}
}

// TestGPropagatesIssuesNoQuery: once the cover is cached, GPropagates
// decides by relational implication and the existence closure alone, so
// the decider's memo does not grow however many FDs it is asked.
func TestGPropagatesIssuesNoQuery(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	if _, err := e.CachedCoverCtx(nil); err != nil {
		t.Fatal(err)
	}
	before := e.Decider().MemoSize()
	for _, fd := range smallFDs(e.Rule().Schema, 2) {
		e.GPropagates(fd)
	}
	if after := e.Decider().MemoSize(); after != before {
		t.Fatalf("memo grew from %d to %d entries across GPropagates calls", before, after)
	}
}

// TestUniversalCoverFDsHoldOnFig1: every FD of the computed cover holds on
// the instance generated from the Fig 1 document (sanity check of the
// whole pipeline: keys → cover → instance).
func TestUniversalCoverFDsHoldOnFig1(t *testing.T) {
	e := NewEngine(paperdata.Keys(), paperdata.UniversalRule())
	inst := e.Rule().Eval(paperdata.Doc())
	for _, fd := range e.MinimumCover() {
		if vs := inst.CheckFD(fd); len(vs) != 0 {
			t.Errorf("cover FD %s violated on Fig 1 instance: %v\n%s",
				fd.Format(e.Rule().Schema), vs, inst)
		}
	}
}

// TestNaiveCoverGuard: the exponential baseline refuses oversized schemas.
func TestNaiveCoverGuard(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NaiveCover should panic above 24 fields")
		}
	}()
	attrs := make([]string, 25)
	fields := make([]string, 0, 25)
	for i := range attrs {
		attrs[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		fields = append(fields, attrs[i])
	}
	_ = fields
	// Build a wide rule quickly via the workload-free path: reuse paper
	// engine but swap in a fat schema is complex; instead construct a
	// minimal rule with 25 attribute children of one node.
	src := "rule wide("
	body := "  v := root / //e\n"
	for i, a := range attrs {
		if i > 0 {
			src += ", "
		}
		src += a + ": w" + a
		body += "  w" + a + " := v / @" + a + "\n"
	}
	src += ") {\n" + body + "}\n"
	tr, err := parseForTest(src)
	if err != nil {
		t.Fatal(err)
	}
	NewEngine(paperdata.Keys(), tr).NaiveCover()
}
