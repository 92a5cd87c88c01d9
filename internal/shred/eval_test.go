package shred

// Differential tests: the streaming evaluator must reproduce the tree
// evaluator's instance exactly — same tuples, same null patterns — on the
// paper's running example, on generated workloads, and on random rules
// over random documents.

import (
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"xkprop/internal/paperdata"
	"xkprop/internal/testutil"
	"xkprop/internal/transform"
	"xkprop/internal/witness"
	"xkprop/internal/workload"
	"xkprop/internal/xmltok"
	"xkprop/internal/xmltree"
)

// assertSameInstances compares the streaming result with the tree
// evaluator's per-rule instances via their canonical renderings.
func assertSameInstances(t *testing.T, tr *transform.Transformation, doc string) {
	t.Helper()
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatalf("tree parse: %v", err)
	}
	want := tr.Eval(tree)
	got, err := EvalStreamingString(tr, doc)
	if err != nil {
		t.Fatalf("streaming eval: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("table count: got %d, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Fatalf("missing table %s", name)
		}
		if g.String() != w.String() {
			t.Errorf("table %s:\nstreaming:\n%s\ntree:\n%s\ndoc:\n%s", name, g.String(), w.String(), doc)
		}
	}
}

func TestStreamingMatchesTreePaperExample(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	assertSameInstances(t, paperdata.Transform(), paperdata.Fig1XML)
}

func TestStreamingMatchesTreeWorkloadGrid(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	cfgs := []workload.Config{
		{Fields: 4, Depth: 2, Keys: 3},
		{Fields: 8, Depth: 3, Keys: 6},
		{Fields: 6, Depth: 2, Keys: 4, Width: 2},
		{Fields: 9, Depth: 3, Keys: 5, Width: 3},
	}
	for _, cfg := range cfgs {
		wl := workload.Generate(cfg)
		for _, fanout := range []int{1, 2, 3} {
			doc := wl.Document(fanout).XMLString()
			tr := transform.MustTransformation(wl.Rule)
			assertSameInstances(t, tr, doc)
		}
	}
}

// TestStreamingNullSubtrees: documents where paths match nothing must
// yield the same all-null products as the tree evaluator.
func TestStreamingNullSubtrees(t *testing.T) {
	tr := paperdata.Transform()
	docs := []string{
		`<r/>`,
		`<r><book isbn="1"/></r>`,
		`<r><book isbn="1"><title/></book></r>`,
		`<r><book isbn="1"><chapter number="2"/><chapter/></book></r>`,
		`<r><other><deep><book isbn="9"><chapter number="3"><name>x</name></chapter></book></deep></other></r>`,
	}
	for _, doc := range docs {
		assertSameInstances(t, tr, doc)
	}
}

// TestStreamingMatchesTreeRandom sweeps seeded random rules over random
// documents built from the rules' own label vocabulary, so paths both hit
// and miss, with attribute collisions forcing shared values.
func TestStreamingMatchesTreeRandom(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 60; i++ {
		_, rule := witness.RandomWorkload(rng)
		tr := transform.MustTransformation(rule)
		doc := randomDocFor(rng, tr)
		assertSameInstances(t, tr, doc)
	}
}

// randomDocFor builds a random document over the labels and attributes a
// transformation's paths mention (plus noise), rendered through xmltree
// so the string is well-formed.
func randomDocFor(rng *rand.Rand, tr *transform.Transformation) string {
	labels := []string{"a", "b", "c", "noise"}
	attrs := []string{"x", "y"}
	var build func(n *xmltree.Node, depth int)
	build = func(n *xmltree.Node, depth int) {
		for _, a := range attrs {
			if rng.Intn(3) > 0 {
				n.SetAttr(a, []string{"0", "1", "2"}[rng.Intn(3)])
			}
		}
		if rng.Intn(4) == 0 {
			n.AddText("t" + labels[rng.Intn(len(labels))])
		}
		if depth >= 4 {
			return
		}
		kids := rng.Intn(4)
		for i := 0; i < kids; i++ {
			c := xmltree.NewElement(labels[rng.Intn(len(labels))])
			n.AddChild(c)
			build(c, depth+1)
		}
	}
	root := xmltree.NewElement(labels[rng.Intn(len(labels))])
	build(root, 0)
	return xmltree.NewTree(root).XMLString()
}

// TestStreamingLineage: every row of every handed-off block carries
// lineage refs whose offsets point at '<' bytes of the source document.
func TestStreamingLineage(t *testing.T) {
	c, err := Compile(paperdata.Transform())
	if err != nil {
		t.Fatal(err)
	}
	doc := paperdata.Fig1XML
	var lins [][]Ref
	ev := c.newEvaluator(0, func(ri int, blk block) error {
		cr := c.rules[ri]
		if cr.rule.Schema.Name != "chapter" {
			return nil
		}
		p := newProduct(cr)
		for p.first(blk.b); ; {
			lins = append(lins, p.lin.refs())
			if !p.next() {
				return nil
			}
		}
	})
	if err := driveString(ev, doc); err != nil {
		t.Fatal(err)
	}
	if len(lins) == 0 {
		t.Fatal("no chapter rows")
	}
	for _, lin := range lins {
		if len(lin) == 0 {
			t.Fatal("row has no lineage")
		}
		for _, ref := range lin {
			if ref.Var == "" || ref.Path == "" {
				t.Errorf("incomplete ref %+v", ref)
			}
			if ref.Offset < 0 || int(ref.Offset) >= len(doc) {
				t.Errorf("ref offset %d out of document", ref.Offset)
				continue
			}
			if !strings.HasPrefix(ref.Path, "/@") && doc[ref.Offset] != '<' && !strings.Contains(ref.Path, "@") {
				t.Errorf("ref %+v: document byte %q, want '<'", ref, doc[ref.Offset])
			}
		}
	}
}

// driveString runs the evaluator alone over a document string, no
// pipeline, no validator.
func driveString(ev *evaluator, doc string) error {
	src := xmltok.New(strings.NewReader(doc), ev.c.in)
	for {
		tok, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch tok.Kind {
		case xmltok.StartElement:
			if err := ev.startElement(tok); err != nil {
				return err
			}
		case xmltok.EndElement:
			if err := ev.endElement(); err != nil {
				return err
			}
		case xmltok.CharData:
			if err := ev.charData(tok.Data); err != nil {
				return err
			}
		}
	}
}

// TestLineagePathsMatchEager: every Ref.Path equals the path an eager
// join of the open elements' labels gives at the binding's start tag,
// plus "/@attr" for an attribute binding. The lineages are rendered only
// after the whole document has closed. The document covers a //-mapped
// variable whose ancestors anchor nothing (item), sibling elements at
// one depth after a pop (p and q, each holding an x), attribute
// bindings, and the root binding of a rule with two root children.
func TestLineagePathsMatchEager(t *testing.T) {
	tr := transform.MustParseString(`
rule deep(k: x1, v: x2) {
  xa := root / //item
  x1 := xa / @k
  x2 := xa / val
}
rule both(r: y1, s: y2) {
  ya := root / //x
  y1 := ya / @k
  yb := root / //y
  y2 := yb / @k
}`)
	attrs := map[string]string{"x1": "k", "y1": "k", "y2": "k"}
	doc := `<db>
  <wrap><deeper><item k="1"><val>a</val></item></deeper></wrap>
  <p><x k="1"/></p><q><x k="2"/></q>
  <y k="3"/>
</db>`
	c, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	var lins []lineage
	ev := c.newEvaluator(0, func(ri int, blk block) error {
		p := newProduct(c.rules[ri])
		for p.first(blk.b); ; {
			lins = append(lins, p.lin.clone())
			if !p.next() {
				return nil
			}
		}
	})
	eager := map[int64]string{}
	var labels []string
	src := xmltok.New(strings.NewReader(doc), c.in)
	for {
		tok, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch tok.Kind {
		case xmltok.StartElement:
			labels = append(labels, tok.Label)
			eager[tok.Offset] = "/" + strings.Join(labels, "/")
			err = ev.startElement(tok)
		case xmltok.EndElement:
			labels = labels[:len(labels)-1]
			err = ev.endElement()
		case xmltok.CharData:
			err = ev.charData(tok.Data)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]bool{}
	for _, lin := range lins {
		for _, ref := range lin.refs() {
			want, ok := eager[ref.Offset]
			if !ok {
				t.Fatalf("ref %+v: no start tag at its offset", ref)
			}
			if a := attrs[ref.Var]; a != "" {
				want += "/@" + a
			}
			if ref.Path != want {
				t.Errorf("ref %+v: path %q, want %q", ref, ref.Path, want)
			}
			seen[ref.Var+" "+ref.Path] = true
		}
	}
	for _, want := range []string{
		transform.RootVar + " /db", "xa /db/wrap/deeper/item", "x1 /db/wrap/deeper/item/@k", "x2 /db/wrap/deeper/item/val",
		"ya /db/p/x", "y1 /db/p/x/@k", "ya /db/q/x", "y1 /db/q/x/@k", "yb /db/y", "y2 /db/y/@k",
	} {
		if !seen[want] {
			t.Errorf("no ref %q among %v", want, seen)
		}
	}
}
