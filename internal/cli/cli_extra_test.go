package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testXSD = `<?xml version="1.0"?>
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
  <xs:element name="r">
    <xs:complexType>
      <xs:sequence>
        <xs:element name="book" maxOccurs="unbounded">
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
</xs:schema>`

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func ddlF(args []string, o, e *bytes.Buffer) int { return RunXkddl(args, o, e) }

func TestXkcheckXSDImport(t *testing.T) {
	xsdPath := writeTemp(t, "schema.xsd", testXSD)
	_, _, _, doc := fixtures(t)
	code, out, _ := runTool(t, checkF, "-xsd", xsdPath, doc)
	if code != 0 || !strings.Contains(out, "OK") {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "bookKey") {
		t.Errorf("imported key names should be listed:\n%s", out)
	}
	// -keys and -xsd together is an error.
	keys, _, _, _ := fixtures(t)
	if code, _, _ := runTool(t, checkF, "-keys", keys, "-xsd", xsdPath, doc); code != 2 {
		t.Error("-keys with -xsd should be exit 2")
	}
	if code, _, _ := runTool(t, checkF, "-xsd", "/nonexistent", doc); code != 2 {
		t.Error("missing xsd should be exit 2")
	}
}

func TestXkcheckStreaming(t *testing.T) {
	keys, _, _, doc := fixtures(t)
	code, out, _ := runTool(t, checkF, "-stream", "-keys", keys, doc)
	if code != 0 || !strings.Contains(out, "streaming") || !strings.Contains(out, "OK") {
		t.Fatalf("code=%d out=%s", code, out)
	}
	bad := writeTemp(t, "bad.xml", `<r><book isbn="1"/><book isbn="1"/></r>`)
	code, out, _ = runTool(t, checkF, "-stream", "-keys", keys, bad)
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Fatalf("stream violation: code=%d out=%s", code, out)
	}
	// Streaming demo mode.
	if code, _, _ := runTool(t, checkF, "-stream", "-demo"); code != 0 {
		t.Error("streaming demo should pass")
	}
	// Quiet mode suppresses detail.
	_, outq, _ := runTool(t, checkF, "-stream", "-q", "-keys", keys, bad)
	if strings.Contains(outq, "duplicate key values") {
		t.Error("-q should suppress detail")
	}
	// Syntax errors surface as exit 2.
	broken := writeTemp(t, "broken.xml", `<r><unclosed>`)
	if code, _, _ := runTool(t, checkF, "-stream", "-keys", keys, broken); code != 2 {
		t.Error("syntax error should be exit 2")
	}
}

func TestXkpropWitness(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	code, out, _ := runTool(t, propF, "-witness",
		"-keys", keys, "-transform", rules, "-relation", "section",
		"-fd", "inChapt, number -> name")
	if code != 1 {
		t.Fatalf("code=%d", code)
	}
	if !strings.Contains(out, "counterexample document") {
		t.Fatalf("witness not printed:\n%s", out)
	}
	if !strings.Contains(out, "<book") {
		t.Errorf("witness should be an XML document:\n%s", out)
	}
}

func TestXkddlDemo(t *testing.T) {
	code, out, _ := runTool(t, ddlF, "-demo")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{
		"-- 7 XML keys -> 4 propagated FDs -> bcnf decomposition",
		`CREATE TABLE "R1"`,
		`PRIMARY KEY ("bookIsbn")`,
		"FOREIGN KEY",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DDL missing %q:\n%s", want, out)
		}
	}
}

func TestXkddlFromFilesWith3NFAndDialect(t *testing.T) {
	keys, _, universal, _ := fixtures(t)
	code, out, _ := runTool(t, ddlF,
		"-keys", keys, "-transform", universal, "-normalize", "3nf",
		"-dialect", "sqlite", "-prefix", "xk_")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, `"xk_R1"`) || !strings.Contains(out, " TEXT") {
		t.Errorf("dialect/prefix not applied:\n%s", out)
	}
}

func TestXkddlFromXSD(t *testing.T) {
	xsdPath := writeTemp(t, "schema.xsd", testXSD)
	universal := writeTemp(t, "u.dsl", `
rule U(isbn: i, chapNum: n, chapName: m) {
  b := root / //book
  i := b / @isbn
  c := b / chapter
  n := c / @number
  m := c / name
}
`)
	code, out, _ := runTool(t, ddlF, "-xsd", xsdPath, "-transform", universal, "-no-foreign-keys")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if strings.Contains(out, "FOREIGN KEY") {
		t.Errorf("-no-foreign-keys ignored:\n%s", out)
	}
	if !strings.Contains(out, "CREATE TABLE") {
		t.Errorf("no DDL emitted:\n%s", out)
	}
}

func TestXkddlErrors(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	if code, _, _ := runTool(t, ddlF); code != 2 {
		t.Error("missing args should be exit 2")
	}
	if code, _, _ := runTool(t, ddlF, "-keys", keys); code != 2 {
		t.Error("missing -transform should be exit 2")
	}
	if code, _, _ := runTool(t, ddlF, "-keys", keys, "-transform", rules); code != 2 {
		t.Error("ambiguous rule should be exit 2")
	}
	if code, _, _ := runTool(t, ddlF, "-keys", keys, "-transform", rules, "-rule", "ghost"); code != 2 {
		t.Error("unknown rule should be exit 2")
	}
	if code, _, _ := runTool(t, ddlF, "-demo", "-normalize", "4nf"); code != 2 {
		t.Error("bad -normalize should be exit 2")
	}
	if code, _, _ := runTool(t, ddlF, "-demo", "-dialect", "oracle"); code != 2 {
		t.Error("bad -dialect should be exit 2")
	}
	xsdPath := writeTemp(t, "schema.xsd", testXSD)
	if code, _, _ := runTool(t, ddlF, "-keys", keys, "-xsd", xsdPath, "-transform", rules); code != 2 {
		t.Error("-keys with -xsd should be exit 2")
	}
}

func TestXkpropExplain(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	code, out, _ := runTool(t, propF, "-explain",
		"-keys", keys, "-transform", rules, "-relation", "book",
		"-fd", "isbn -> contact")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{"PROPAGATED", "xa is keyed", "unique under xa"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
	code, out, _ = runTool(t, propF, "-explain",
		"-keys", keys, "-transform", rules, "-relation", "section",
		"-fd", "inChapt, number -> name")
	if code != 1 || !strings.Contains(out, "not keyed") {
		t.Fatalf("negative explain: code=%d out=%s", code, out)
	}
}

// TestXkpropExplainTimeout: -explain honours -timeout. An expired deadline
// stops the walk with exit 2, and no verdict or narrative is printed.
func TestXkpropExplainTimeout(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	code, out, errb := runTool(t, propF, "-explain", "-timeout", "1ns",
		"-keys", keys, "-transform", rules, "-relation", "section",
		"-fd", "inChapt, number -> name")
	if code != 2 || out != "" || !strings.Contains(errb, "xkprop: aborted: context deadline exceeded") {
		t.Fatalf("code=%d stdout=%q stderr=%q, want exit 2, no output and an abort report", code, out, errb)
	}
}

// TestXkcoverWhyTimeout: -why honours -timeout. Under an expired deadline
// the run stops with exit 2 and prints no provenance. (The cover's own
// search aborts first here; TestAnnotatedCoverCountdownAbort in
// internal/core aborts AnnotatedCover itself.)
func TestXkcoverWhyTimeout(t *testing.T) {
	code, out, errb := runTool(t, coverF, "-demo", "-why", "-timeout", "1ns")
	if code != 2 || strings.Contains(out, "provenance:") || !strings.Contains(errb, "xkcover: aborted:") {
		t.Fatalf("code=%d stdout=%q stderr=%q, want exit 2, no provenance and an abort report", code, out, errb)
	}
}

func TestXkcoverDerive(t *testing.T) {
	code, out, _ := runTool(t, coverF, "-demo", "-derive", "bookIsbn, chapNum, secNum -> bookTitle")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{"goal: bookIsbn, chapNum, secNum → bookTitle", "bookIsbn → bookTitle", "transitivity"} {
		if !strings.Contains(out, want) {
			t.Errorf("derivation missing %q:\n%s", want, out)
		}
	}
	// A non-implied goal exits 1.
	code, out, _ = runTool(t, coverF, "-demo", "-derive", "bookTitle -> bookIsbn")
	if code != 1 || !strings.Contains(out, "does NOT follow") {
		t.Fatalf("negative derive: code=%d out=%s", code, out)
	}
	// A malformed FD exits 2.
	if code, _, _ := runTool(t, coverF, "-demo", "-derive", "ghost -> bookIsbn"); code != 2 {
		t.Error("bad -derive FD should be exit 2")
	}
}

func TestXkmapLineage(t *testing.T) {
	_, rules, _, doc := fixtures(t)
	code, out, _ := runTool(t, mapF, "-lineage", "-relation", "chapter", "-transform", rules, doc)
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "row 0 ⇐") || !strings.Contains(out, "ya=#") {
		t.Errorf("lineage annotations missing:\n%s", out)
	}
}

func TestXkcoverWhy(t *testing.T) {
	code, out, _ := runTool(t, coverF, "-demo", "-why")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{
		"provenance:",
		"identifies table-tree node zs via: φ1 , φ2 , φ6",
		"RHS unique under zs: (//book/chapter/section, (name, {}))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("provenance output missing %q:\n%s", want, out)
		}
	}
}
