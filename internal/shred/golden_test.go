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

// TestResultGolden pins the whole Result JSON — table tallies and every
// FD violation with its values, offsets and lineage, in order — at
// workers 1 and 4. Run with -update to rewrite testdata/result.golden.json.
func TestResultGolden(t *testing.T) {
	sigma := xmlkey.MustParseSet(badKeys)
	tr := transform.MustParseString(goldenTransform)
	cross := tr.Rules[1].Schema
	covers := map[string][]rel.FD{
		"chapter": coverFor(t, sigma, tr.Rules[0]),
		"cross":   {rel.MustParseFD(cross, "isbn -> author"), rel.MustParseFD(cross, "isbn -> title")},
	}
	path := filepath.Join("testdata", "result.golden.json")
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), tr, strings.NewReader(goldenDoc), Discard{}, Options{
			Workers: workers, BatchSize: 2, Covers: covers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, '\n')
		if *update && workers == 1 {
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
			t.Errorf("workers=%d: Result JSON differs from %s:\n%s", workers, path, got)
		}
	}
}
