package shred

import (
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xkprop/internal/rel"
	"xkprop/internal/sqlgen"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenDoc has a multi-binding slot (three chapters in the first book,
// four books under the cross rule's book slot), empty slots (a chapter
// without a name, a book without chapters, a rule whose only path
// matches nothing) and planted conflicts: isbn 1 repeats chapter 1 with
// another name, an isbn-less book has a named chapter, and two authors
// break the hand-written isbn -> author FD of the cross product.
const goldenDoc = `<db>
  <book isbn="1">
    <title>T1</title>
    <chapter number="1"><name>Intro</name></chapter>
    <chapter number="2"><name>Keys</name></chapter>
    <chapter number="3"/>
  </book>
  <book isbn="1"><chapter number="1"><name>Preface</name></chapter></book>
  <book isbn="2"/>
  <book><chapter number="1"><name>Orphan</name></chapter></book>
  <author name="Ann"/>
  <author name="Bob"/>
</db>`

const goldenTransform = badTransform + `
rule cross(isbn: z1, title: z2, author: z3) {
  zb := root / //book
  z1 := zb / @isbn
  z2 := zb / title
  za := root / //author
  z3 := za / @name
}
rule missing(x: m1) {
  mm := root / //nothing
  m1 := mm / @x
}`

// goldenCovers enforces chapter's propagated cover and two hand-written
// FDs of the cross product, one of which goldenDoc breaks.
func goldenCovers(t *testing.T, tr *transform.Transformation) map[string][]rel.FD {
	t.Helper()
	cross := tr.Rules[1].Schema
	return map[string][]rel.FD{
		"chapter": coverFor(t, xmlkey.MustParseSet(badKeys), tr.Rules[0]),
		"cross":   {rel.MustParseFD(cross, "isbn -> author"), rel.MustParseFD(cross, "isbn -> title")},
	}
}

// TestResultGolden pins the whole Result JSON — table tallies and every
// FD violation with its values, offsets and lineage, in order. Run with
// -update to rewrite testdata/result.golden.json.
func TestResultGolden(t *testing.T) {
	tr := transform.MustParseString(goldenTransform)
	res, err := Run(context.Background(), tr, strings.NewReader(goldenDoc), Discard{}, Options{
		BatchSize: 2, Covers: goldenCovers(t, tr),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "result.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("Result JSON differs from %s:\n%s", path, got)
	}
}

// TestSinkGolden pins every directory sink's bytes: goldenDoc shredded at
// BatchSize 7 (so the cross table's eight rows take two batches) must
// reproduce testdata/sink/<format>/ file for file. Run with -update to
// rewrite them.
func TestSinkGolden(t *testing.T) {
	tr := transform.MustParseString(goldenTransform)
	for _, format := range SinkFormats() {
		dir := t.TempDir()
		sink, err := SinkFor(format, dir, sqlgen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(context.Background(), tr, strings.NewReader(goldenDoc), sink, Options{
			BatchSize: 7, Sigma: xmlkey.MustParseSet(badKeys), Covers: goldenCovers(t, tr),
		}); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		got := readDir(t, dir)
		golden := filepath.Join("testdata", "sink", format)
		if *update {
			if err := os.RemoveAll(golden); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, data := range got {
				if err := os.WriteFile(filepath.Join(golden, name), []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := readDir(t, golden)
		if len(got) != len(want) {
			t.Errorf("%s: %d files, want %d", format, len(got), len(want))
		}
		for name, w := range want {
			if g, ok := got[name]; !ok {
				t.Errorf("%s: %s missing", format, name)
			} else if g != w {
				t.Errorf("%s: %s differs from %s:\n%s", format, name, golden, g)
			}
		}
	}
}
