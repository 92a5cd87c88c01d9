package core

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// walkCase is one schema of the walk golden file with the FDs asked of it.
type walkCase struct {
	name  string
	sigma []xmlkey.Key
	rule  *transform.Rule
	fds   []rel.FD
}

// walkCases lists the paper's three table rules, each with every FD whose
// left-hand side has at most two fields; Example 3.1's universal relation
// with its four cover FDs; and each §6 point of designGoldenPoints with
// its two probes. The last two also get four FDs drawn from a fixed seed.
func walkCases() []walkCase {
	var out []walkCase
	for _, r := range paperdata.Transform().Rules {
		out = append(out, walkCase{r.Schema.Name, paperdata.Keys(), r, smallFDs(r.Schema, 2)})
	}
	rng := rand.New(rand.NewSource(20))
	u := paperdata.UniversalRule()
	_, cover := paperdata.PaperCover()
	out = append(out, walkCase{"example3.1", paperdata.Keys(), u, seededFDs(rng, u.Schema, cover)})
	for _, cfg := range designGoldenPoints {
		w := workload.Generate(cfg)
		name := fmt.Sprintf("f%d_d%d_k%d_w%d", cfg.Fields, cfg.Depth, cfg.Keys, max(cfg.Width, 1))
		fds := seededFDs(rng, w.Rule.Schema, []rel.FD{w.ProbeTrue, w.ProbeFalse})
		out = append(out, walkCase{name, w.Sigma, w.Rule, fds})
	}
	return out
}

// seededFDs appends four random single-attribute FDs over sc, each with
// one to three left-hand-side fields, to fds.
func seededFDs(rng *rand.Rand, sc *rel.Schema, fds []rel.FD) []rel.FD {
	n := sc.Len()
	for i := 0; i < 4; i++ {
		var lhs rel.AttrSet
		for k := 1 + rng.Intn(3); k > 0; k-- {
			lhs = lhs.With(rng.Intn(n))
		}
		fds = append(fds, rel.NewFD(lhs, rel.AttrSet{}.With(rng.Intn(n))))
	}
	return fds
}

// smallFDs returns every single-attribute FD over sc whose left-hand side
// has at most maxLHS fields, trivial ones included.
func smallFDs(sc *rel.Schema, maxLHS int) []rel.FD {
	var lhss []rel.AttrSet
	var grow func(from int, lhs rel.AttrSet)
	grow = func(from int, lhs rel.AttrSet) {
		lhss = append(lhss, lhs)
		if lhs.Card() == maxLHS {
			return
		}
		for i := from; i < sc.Len(); i++ {
			grow(i+1, lhs.With(i))
		}
	}
	grow(0, rel.AttrSet{})
	var out []rel.FD
	for _, lhs := range lhss {
		for a := 0; a < sc.Len(); a++ {
			out = append(out, rel.NewFD(lhs, rel.AttrSet{}.With(a)))
		}
	}
	return out
}

// walkRecord renders one case: the annotated minimum cover, then for each
// FD the GminimumCover verdict and Algorithm propagation's narrative.
func walkRecord(t *testing.T, b *strings.Builder, c walkCase, workers int) {
	sc := c.rule.Schema
	e := NewEngine(c.sigma, c.rule).SetWorkers(workers)
	fmt.Fprintf(b, "== %s\nprovenance:\n", c.name)
	for _, a := range annotated(t, e) {
		b.WriteString(a.Format(sc))
	}
	for _, fd := range c.fds {
		verdict := "NOT PROPAGATED"
		if e.GPropagates(fd) {
			verdict = "PROPAGATED"
		}
		fmt.Fprintf(b, "gmin %s: %s\n", fd.Format(sc), verdict)
		for _, ex := range explain(t, e, fd) {
			b.WriteString(ex.String())
		}
	}
}

// TestWalkGolden pins the recorded runs of Algorithm propagation and
// minimumCover: AnnotatedCover's provenance, Explain's narratives and
// GPropagates' verdicts on the cases of walkCases, at workers 1 and 4.
// Run with -update to rewrite testdata/walk.golden.
func TestWalkGolden(t *testing.T) {
	path := filepath.Join("testdata", "walk.golden")
	cases := walkCases()
	for _, workers := range []int{1, 4} {
		var b strings.Builder
		for _, c := range cases {
			walkRecord(t, &b, c, workers)
		}
		got := b.String()
		if *update && workers == 1 {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("workers=%d: output differs from %s:\n%s", workers, path, firstDiff(got, string(want)))
		}
	}
}
