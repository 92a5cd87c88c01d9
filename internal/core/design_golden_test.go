package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
	"xkprop/internal/sqlgen"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// designGoldenPoints are the §6 points of the design pipeline's golden
// file: the design workload's pool (field, depth and key sweeps, the
// chain-keyed wide schemas past the exact-projection cut-off and two
// width-2 trees), plus fields=100, whose attribute sets span two words.
var designGoldenPoints = []workload.Config{
	{Fields: 6, Depth: 2, Keys: 3},
	{Fields: 8, Depth: 3, Keys: 5},
	{Fields: 10, Depth: 5, Keys: 10},
	{Fields: 12, Depth: 4, Keys: 8},
	{Fields: 15, Depth: 5, Keys: 10},
	{Fields: 20, Depth: 5, Keys: 10},
	{Fields: 24, Depth: 5, Keys: 12},
	{Fields: 15, Depth: 2, Keys: 10},
	{Fields: 15, Depth: 8, Keys: 10},
	{Fields: 15, Depth: 5, Keys: 30},
	{Fields: 15, Depth: 5, Keys: 45},
	{Fields: 40, Depth: 2, Keys: 2},
	{Fields: 60, Depth: 3, Keys: 3},
	{Fields: 12, Depth: 3, Keys: 6, Width: 2},
	{Fields: 16, Depth: 2, Keys: 4, Width: 2},
	{Fields: 100, Depth: 5, Keys: 10},
}

// designPipeline renders one schema's design result: the minimum cover in
// rel.Minimize's output order, the BCNF fragments with their keys, and
// the DDL generated from them.
func designPipeline(b *strings.Builder, name string, sigma []xmlkey.Key, rule *transform.Rule, workers int) {
	sc := rule.Schema
	cover := NewEngine(sigma, rule).SetWorkers(workers).MinimumCover()
	frags := rel.BCNF(cover, sc.All())
	fmt.Fprintf(b, "== %s\ncover:\n", name)
	for _, f := range cover {
		fmt.Fprintf(b, "  %s\n", f.Format(sc))
	}
	b.WriteString("bcnf:\n")
	b.WriteString(rel.FormatFragments(sc, frags))
	b.WriteString("ddl:\n")
	opts := sqlgen.Options{}
	b.WriteString(sqlgen.DDL(sqlgen.FromFragments(sc, frags, opts), opts))
	b.WriteString("\n")
}

// TestDesignPipelineGolden pins the design pipeline's output, cover order
// included, on the §6 points above and on Example 3.1, at workers 1 and
// 4. Run with -update to rewrite testdata/design.golden.
func TestDesignPipelineGolden(t *testing.T) {
	path := filepath.Join("testdata", "design.golden")
	for _, workers := range []int{1, 4} {
		var b strings.Builder
		designPipeline(&b, "example3.1", paperdata.Keys(), paperdata.UniversalRule(), workers)
		for _, cfg := range designGoldenPoints {
			w := workload.Generate(cfg)
			name := fmt.Sprintf("f%d_d%d_k%d_w%d", cfg.Fields, cfg.Depth, cfg.Keys, max(cfg.Width, 1))
			designPipeline(&b, name, w.Sigma, w.Rule, workers)
		}
		got := b.String()
		if *update && workers == 1 {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: design pipeline output differs from %s:\n%s", workers, path, firstDiff(got, string(want)))
		}
	}
}

// firstDiff reports the first differing line of two texts.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "texts differ"
}

// TestThreeNFDeterministicGrid: 3NF synthesis of the minimum cover of the
// §6 point fields=10/depth=5/keys=10, whose LHS groups tie on their
// attribute sets, gives one decomposition, and so one DDL, over 200 calls.
func TestThreeNFDeterministicGrid(t *testing.T) {
	w := workload.Generate(workload.Config{Fields: 10, Depth: 5, Keys: 10})
	sc := w.Rule.Schema
	cover := NewEngine(w.Sigma, w.Rule).MinimumCover()
	opts := sqlgen.Options{}
	ddl := func() string {
		return sqlgen.DDL(sqlgen.FromFragments(sc, rel.ThreeNF(cover, sc.All()), opts), opts)
	}
	want := ddl()
	for i := 1; i < 200; i++ {
		if got := ddl(); got != want {
			t.Fatalf("call %d gave another decomposition:\n%s\nfirst call:\n%s", i, got, want)
		}
	}
}
