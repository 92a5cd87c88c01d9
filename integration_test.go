package xkprop_test

import (
	"context"
	"strings"
	"testing"

	"xkprop"
	"xkprop/internal/paperdata"
)

// TestIntegrationXSDToSQL drives the full modern pipeline: XML Schema →
// K̄ keys → streaming validation → propagation with explanation →
// minimum cover → BCNF → SQL DDL, asserting consistency at every joint.
func TestIntegrationXSDToSQL(t *testing.T) {
	keys, warnings, err := xkprop.XSDImportString(`
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" maxOccurs="unbounded">
          <xs:complexType>
            <xs:sequence>
              <xs:element name="chapter" maxOccurs="unbounded">
                <xs:complexType>
                  <xs:sequence>
                    <xs:element name="name"/>
                  </xs:sequence>
                </xs:complexType>
              </xs:element>
            </xs:sequence>
          </xs:complexType>
          <xs:key name="chapterKey">
            <xs:selector xpath="chapter"/>
            <xs:field xpath="@number"/>
          </xs:key>
        </xs:element>
      </xs:sequence>
    </xs:complexType>
    <xs:key name="bookKey">
      <xs:selector xpath=".//book"/>
      <xs:field xpath="@isbn"/>
    </xs:key>
  </xs:element>
</xs:schema>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	// The imported keys are φ1 and φ2 of the paper, plus the
	// occurrence-derived φ4 (each chapter has at most one name, from the
	// name declaration's default maxOccurs=1).
	if len(keys) != 3 {
		t.Fatalf("keys = %v", keys)
	}

	// They validate the paper's document — both tree-based and streaming.
	doc := paperdata.Doc()
	if !xkprop.SatisfiesKeys(doc, keys) {
		t.Fatal("Fig 1 must satisfy the imported keys")
	}
	if vs, err := xkprop.StreamValidate(strings.NewReader(paperdata.Fig1XML), keys); err != nil || len(vs) != 0 {
		t.Fatalf("stream: err=%v vs=%v", err, vs)
	}

	// Propagation over the Fig 2(b) design holds with just these two keys.
	rule := paperdata.Fig2bRule()
	fd, _ := xkprop.ParseFD(rule.Schema, "isbn, chapterNum -> chapterName")
	eng := xkprop.NewEngine(keys, rule)
	if !eng.Propagates(fd) {
		t.Fatal("imported keys must prove the refined design's key")
	}
	exs, err := eng.Explain(context.Background(), fd)
	if err != nil || len(exs) != 1 || !exs[0].Propagated {
		t.Fatal("explanation must agree")
	}
	if !strings.Contains(exs[0].String(), "is keyed") {
		t.Errorf("explanation should narrate the keyed walk:\n%s", exs[0])
	}

	// Cover → BCNF → DDL on a universal rule.
	u := paperdata.UniversalRule()
	cover := xkprop.MinimumCover(keys, u)
	if len(cover) == 0 {
		t.Fatal("cover must be non-empty")
	}
	frags := xkprop.BCNF(cover, u.Schema.All())
	if !xkprop.LosslessJoin(cover, u.Schema.All(), frags) {
		t.Fatal("BCNF must be lossless")
	}
	ddl := xkprop.SQLDDL(xkprop.SQLFromFragments(u.Schema, frags, xkprop.SQLOptions{}), xkprop.SQLOptions{})
	if !strings.Contains(ddl, "CREATE TABLE") || !strings.Contains(ddl, "PRIMARY KEY") {
		t.Fatalf("DDL malformed:\n%s", ddl)
	}

	// Negative verdicts carry witnesses.
	bad, _ := xkprop.ParseFD(rule.Schema, "chapterNum -> chapterName")
	if eng.Propagates(bad) {
		t.Fatal("chapterNum alone must not be a key")
	}
	if _, _, found := xkprop.FindFDCounterexample(keys, rule, bad, xkprop.WitnessOptions{MaxTries: 20000}); !found {
		t.Fatal("no witness for the negative verdict")
	}
}

// TestIntegrationRootAttributeFields: fields populated from root
// attributes are constants — ∅ → field is propagated.
func TestIntegrationRootAttributeFields(t *testing.T) {
	tr, err := xkprop.ParseTransformationString(`
rule meta(version: v, vendor: w) {
  v := root / @version
  w := root / @vendor
}`)
	if err != nil {
		t.Fatal(err)
	}
	rule := tr.Rules[0]
	fd, _ := xkprop.ParseFD(rule.Schema, "-> version")
	if !xkprop.Propagates(nil, rule, fd) {
		t.Error("a root attribute is document-wide unique: ∅ → version must hold")
	}
	// And it holds on instances.
	doc, _ := xkprop.ParseDocumentString(`<r version="1" vendor="acme"><x/></r>`)
	inst := rule.Eval(doc)
	if len(inst.Tuples) != 1 || !inst.SatisfiesFD(fd) {
		t.Errorf("instance wrong:\n%s", inst)
	}
}

// TestIntegrationEngineReuseConsistency: a shared engine answers exactly
// like fresh engines across interleaved queries of all kinds.
func TestIntegrationEngineReuseConsistency(t *testing.T) {
	sigma := paperdata.Keys()
	u := paperdata.UniversalRule()
	shared := xkprop.NewEngine(sigma, u)
	queries := []string{
		"bookIsbn -> bookTitle",
		"bookTitle -> bookIsbn",
		"bookIsbn, chapNum -> chapName",
		"chapNum -> chapName",
		"bookIsbn, chapNum, secNum -> secName",
	}
	for _, q := range queries {
		fd, _ := xkprop.ParseFD(u.Schema, q)
		fresh := xkprop.NewEngine(sigma, u)
		if shared.Propagates(fd) != fresh.Propagates(fd) {
			t.Errorf("shared/fresh disagree on %s", q)
		}
		if shared.GPropagates(fd) != fresh.GPropagates(fd) {
			t.Errorf("shared/fresh GPropagates disagree on %s", q)
		}
	}
	// Cover is stable under repetition.
	c1 := shared.CoverAsStrings(shared.MinimumCover())
	c2 := shared.CoverAsStrings(shared.MinimumCover())
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("cover unstable: %v vs %v", c1, c2)
		}
	}
}
