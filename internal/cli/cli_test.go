package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
)

// fixtures writes the paper's running example to a temp dir and returns
// the file paths.
func fixtures(t *testing.T) (keys, rules, universal, doc string) {
	t.Helper()
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	keys = write("keys.txt", paperdata.KeysText)
	rules = write("rules.dsl", paperdata.TransformText)
	universal = write("universal.dsl", paperdata.UniversalText)
	doc = write("doc.xml", paperdata.Fig1XML)
	return
}

func runTool(t *testing.T, f func([]string, *bytes.Buffer, *bytes.Buffer) int, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := f(args, &out, &errb)
	return code, out.String(), errb.String()
}

// adapters fix the io.Writer signatures for runTool.
func checkF(args []string, o, e *bytes.Buffer) int { return RunXkcheck(args, o, e) }
func mapF(args []string, o, e *bytes.Buffer) int   { return RunXkmap(args, o, e) }
func propF(args []string, o, e *bytes.Buffer) int  { return RunXkprop(args, o, e) }
func coverF(args []string, o, e *bytes.Buffer) int { return RunXkcover(args, o, e) }
func benchF(args []string, o, e *bytes.Buffer) int { return RunXkbench(args, o, e) }

func TestXkcheckOK(t *testing.T) {
	keys, _, _, doc := fixtures(t)
	code, out, _ := runTool(t, checkF, "-keys", keys, doc)
	if code != 0 || !strings.Contains(out, "OK: document satisfies all keys") {
		t.Fatalf("code=%d out=%s", code, out)
	}
}

func TestXkcheckViolation(t *testing.T) {
	keys, _, _, _ := fixtures(t)
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.xml")
	os.WriteFile(bad, []byte(`<r><book isbn="1"/><book isbn="1"/></r>`), 0o644)
	code, out, _ := runTool(t, checkF, "-keys", keys, bad)
	if code != 1 || !strings.Contains(out, "FAIL") {
		t.Fatalf("code=%d out=%s", code, out)
	}
	// -q suppresses per-violation detail.
	_, outq, _ := runTool(t, checkF, "-q", "-keys", keys, bad)
	if strings.Contains(outq, "target nodes") {
		t.Error("-q should suppress violation detail")
	}
}

func TestXkcheckDemoAndErrors(t *testing.T) {
	if code, out, _ := runTool(t, checkF, "-demo"); code != 0 || !strings.Contains(out, "OK") {
		t.Errorf("demo: code=%d out=%s", code, out)
	}
	if code, _, errb := runTool(t, checkF); code != 2 || !strings.Contains(errb, "usage") {
		t.Errorf("missing args: code=%d err=%s", code, errb)
	}
	if code, _, _ := runTool(t, checkF, "-keys", "/nonexistent", "/nonexistent"); code != 2 {
		t.Error("missing files should be exit 2")
	}
	if code, _, _ := runTool(t, checkF, "-bogusflag"); code != 2 {
		t.Error("bad flag should be exit 2")
	}
}

func TestXkmapTableAndCSV(t *testing.T) {
	_, rules, _, doc := fixtures(t)
	code, out, _ := runTool(t, mapF, "-transform", rules, doc)
	if code != 0 {
		t.Fatalf("code=%d", code)
	}
	for _, want := range []string{"book:", "chapter:", "section:", "Introduction", "Tim Bray"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
	code, out, _ = runTool(t, mapF, "-format", "csv", "-relation", "chapter", "-transform", rules, doc)
	if code != 0 {
		t.Fatalf("csv code=%d", code)
	}
	if !strings.HasPrefix(out, "inBook,number,name\n") {
		t.Errorf("csv header wrong:\n%s", out)
	}
	if strings.Contains(out, "book:") {
		t.Error("-relation should filter to one relation")
	}
}

func TestXkmapErrors(t *testing.T) {
	_, rules, _, doc := fixtures(t)
	if code, _, errb := runTool(t, mapF, "-relation", "nope", "-transform", rules, doc); code != 2 || !strings.Contains(errb, "no relation") {
		t.Errorf("unknown relation: code=%d err=%s", code, errb)
	}
	if code, _, _ := runTool(t, mapF, "-format", "yaml", "-transform", rules, doc); code != 2 {
		t.Error("bad format should be exit 2")
	}
	if code, _, _ := runTool(t, mapF); code != 2 {
		t.Error("missing args should be exit 2")
	}
	if code, _, _ := runTool(t, mapF, "-demo"); code != 0 {
		t.Error("demo should work")
	}
}

func TestXkpropVerdicts(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	code, out, _ := runTool(t, propF,
		"-keys", keys, "-transform", rules, "-relation", "chapter",
		"-fd", "inBook, number -> name")
	if code != 0 || !strings.Contains(out, "PROPAGATED") {
		t.Fatalf("code=%d out=%s", code, out)
	}
	code, out, _ = runTool(t, propF,
		"-keys", keys, "-transform", rules, "-relation", "section",
		"-fd", "inChapt, number -> name")
	if code != 1 || !strings.Contains(out, "NOT PROPAGATED") {
		t.Fatalf("negative case: code=%d out=%s", code, out)
	}
	// gmin agrees.
	code, _, _ = runTool(t, propF, "-check", "gmin",
		"-keys", keys, "-transform", rules, "-relation", "chapter",
		"-fd", "inBook, number -> name")
	if code != 0 {
		t.Error("gmin should agree on the positive case")
	}
}

func TestXkpropDemoAndErrors(t *testing.T) {
	code, out, _ := runTool(t, propF, "-demo")
	if code != 0 || !strings.Contains(out, "demo results match the paper") {
		t.Fatalf("demo: code=%d out=%s", code, out)
	}
	if code, _, _ := runTool(t, propF); code != 2 {
		t.Error("missing args should be exit 2")
	}
	keys, rules, _, _ := fixtures(t)
	if code, _, errb := runTool(t, propF, "-keys", keys, "-transform", rules, "-relation", "ghost", "-fd", "a -> b"); code != 2 || !strings.Contains(errb, "no rule") {
		t.Errorf("unknown relation: code=%d err=%s", code, errb)
	}
	if code, _, _ := runTool(t, propF, "-keys", keys, "-transform", rules, "-relation", "chapter", "-fd", "ghost -> name"); code != 2 {
		t.Error("bad FD should be exit 2")
	}
	if code, _, _ := runTool(t, propF, "-check", "magic", "-demo"); code != 2 {
		t.Error("bad -check should be exit 2")
	}
}

func TestXkcoverDemo(t *testing.T) {
	code, out, _ := runTool(t, coverF, "-demo", "-naive", "-normalize", "bcnf")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	for _, want := range []string{
		"minimum cover (4 FDs):",
		"bookIsbn → bookTitle",
		"bookIsbn, chapNum, secNum → secName",
		"covers are equivalent ✓",
		"BCNF decomposition:",
		"lossless join: true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRemovedFlags pins the removal of xkprop's, xkcover's and
// xkbench's -parallel and of xkbench's -max-fields: each is an unknown
// flag (exit 2). The file-based runs -parallel used to vary give their
// answers without it: the xkprop chapter verdict, and xkcover -naive on
// the universal fixture (the only file-based naive cross-check).
func TestRemovedFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		tool func([]string, *bytes.Buffer, *bytes.Buffer) int
		flag string
		val  string
	}{
		{"xkprop", propF, "-parallel", "4"},
		{"xkcover", coverF, "-parallel", "4"},
		{"xkbench", benchF, "-parallel", "4"},
		{"xkbench", benchF, "-max-fields", "10"},
	} {
		if code, _, errb := runTool(t, tc.tool, tc.flag, tc.val); code != 2 || !strings.Contains(errb, tc.flag) {
			t.Errorf("%s %s %s: code=%d err=%s", tc.name, tc.flag, tc.val, code, errb)
		}
	}
	keys, rules, universal, _ := fixtures(t)
	code, out, _ := runTool(t, propF,
		"-keys", keys, "-transform", rules, "-relation", "chapter",
		"-fd", "inBook, number -> name")
	if code != 0 || !strings.Contains(out, "PROPAGATED") {
		t.Fatalf("xkprop: code=%d out=%s", code, out)
	}
	code, out, _ = runTool(t, coverF, "-naive", "-keys", keys, "-transform", universal)
	if code != 0 || !strings.Contains(out, "minimum cover (4 FDs):") ||
		!strings.Contains(out, "covers are equivalent ✓") {
		t.Fatalf("xkcover -naive: code=%d out=%s", code, out)
	}
}

func TestXkcoverFilesAnd3NF(t *testing.T) {
	keys, _, universal, _ := fixtures(t)
	code, out, _ := runTool(t, coverF, "-keys", keys, "-transform", universal, "-normalize", "3nf")
	if code != 0 {
		t.Fatalf("code=%d out=%s", code, out)
	}
	if !strings.Contains(out, "3NF synthesis:") || !strings.Contains(out, "dependency preserving: true") {
		t.Errorf("3nf output wrong:\n%s", out)
	}
	// Explicit -rule selection.
	code, _, _ = runTool(t, coverF, "-keys", keys, "-transform", universal, "-rule", "U")
	if code != 0 {
		t.Error("-rule U should work")
	}
}

func TestXkcoverErrors(t *testing.T) {
	keys, rules, _, _ := fixtures(t)
	if code, _, _ := runTool(t, coverF); code != 2 {
		t.Error("missing args should be exit 2")
	}
	if code, _, errb := runTool(t, coverF, "-keys", keys, "-transform", rules); code != 2 || !strings.Contains(errb, "multiple rules") {
		t.Errorf("ambiguous rule: code=%d err=%s", code, errb)
	}
	if code, _, _ := runTool(t, coverF, "-keys", keys, "-transform", rules, "-rule", "ghost"); code != 2 {
		t.Error("unknown rule should be exit 2")
	}
	if code, _, _ := runTool(t, coverF, "-demo", "-normalize", "4nf"); code != 2 {
		t.Error("bad -normalize should be exit 2")
	}
}

func TestXkbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("xkbench smoke is slow")
	}
	code, out, _ := runTool(t, benchF, "-fig", "7b", "-reps", "1")
	if code != 0 || !strings.Contains(out, "Fig 7(b)") {
		t.Fatalf("code=%d out=%s", code, out)
	}
	lines := strings.Count(out, "\n")
	if lines < 10 {
		t.Errorf("expected 9 data rows, got output:\n%s", out)
	}
	if code, _, _ := runTool(t, benchF, "-fig", "9z"); code != 2 {
		t.Error("unknown figure should be exit 2")
	}
}

func TestXkbenchExtremesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("xkbench smoke is slow")
	}
	code, out, _ := runTool(t, benchF, "-fig", "extremes", "-reps", "1")
	if code != 0 || !strings.Contains(out, "1000") {
		t.Fatalf("code=%d out=%s", code, out)
	}
}
