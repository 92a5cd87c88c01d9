package shred

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xkprop/internal/budget"
	"xkprop/internal/core"
	"xkprop/internal/metrics"
	"xkprop/internal/rel"
	"xkprop/internal/testutil"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltree"
)

// badDoc repeats a (isbn, number) pair with different chapter names: the
// book key breaks and the propagated FD inBook, number → name breaks with
// it.
const badDoc = `<db><book isbn="1"><chapter number="1"><name>A</name></chapter></book>` +
	`<book isbn="1"><chapter number="1"><name>B</name></chapter></book></db>`

const badKeys = `(ε, (//book, {@isbn}))
(//book, (chapter, {@number}))
(//book/chapter, (name, {}))
`

const badTransform = `rule chapter(inBook: y1, number: y2, name: y3) {
  ya := root / //book
  y1 := ya / @isbn
  yc := ya / chapter
  y2 := yc / @number
  y3 := yc / name
}`

func coverFor(t testing.TB, sigma []xmlkey.Key, rule *transform.Rule) []rel.FD {
	t.Helper()
	cover, err := core.NewEngine(sigma, rule).MinimumCoverCtx(context.Background())
	if err != nil {
		t.Fatalf("minimum cover: %v", err)
	}
	return cover
}

func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(b)
	}
	return out
}

// TestExactTupleCounts: the single-chain workload's tuple count is
// fanout^depth exactly.
func TestExactTupleCounts(t *testing.T) {
	wl := workload.Generate(workload.Config{Fields: 8, Depth: 3, Keys: 6})
	tr := transform.MustTransformation(wl.Rule)
	for _, fanout := range []int{1, 2, 3} {
		doc := wl.Document(fanout).XMLString()
		res, err := Run(context.Background(), tr, strings.NewReader(doc), Discard{}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(1)
		for i := 0; i < 3; i++ {
			want *= int64(fanout)
		}
		if got := res.Tuples(); got != want {
			t.Errorf("fanout %d: %d tuples, want %d", fanout, got, want)
		}
	}
}

// TestViolatingFixture: the key-violating document must be rejected by
// the in-pass validator AND produce a typed FDViolation whose tuples
// carry values, offsets and lineage.
func TestViolatingFixture(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	sigma := xmlkey.MustParseSet(badKeys)
	tr := transform.MustParseString(badTransform)
	covers := map[string][]rel.FD{"chapter": coverFor(t, sigma, tr.Rules[0])}
	res, err := Run(context.Background(), tr, strings.NewReader(badDoc), Discard{}, Options{
		Sigma: sigma, Covers: covers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted() {
		t.Error("validator accepted a duplicate @isbn document")
	}
	if len(res.Violations) == 0 {
		t.Fatal("no FDViolation for conflicting chapter names")
	}
	v := res.Violations[0]
	if v.Table != "chapter" || v.Condition != 2 || len(v.Tuples) != 2 {
		t.Fatalf("unexpected violation shape: %+v", v)
	}
	for _, vt := range v.Tuples {
		if len(vt.Lineage) == 0 {
			t.Errorf("violating tuple without lineage: %+v", vt)
		}
		if vt.Offset <= 0 || int(vt.Offset) >= len(badDoc) {
			t.Errorf("violating tuple offset %d out of range", vt.Offset)
		}
	}
	// The two conflicting tuples disagree on the name column only.
	a, b := v.Tuples[0], v.Tuples[1]
	if *a.Values[0] != *b.Values[0] || *a.Values[1] != *b.Values[1] {
		t.Errorf("tuples disagree on the LHS: %v vs %v", a.render(), b.render())
	}
	if *a.Values[2] == *b.Values[2] {
		t.Errorf("tuples agree on the RHS: %v vs %v", a.render(), b.render())
	}
}

// TestGuardAgreesWithCheckFD: on random instances the online guard's
// verdict per FD must match rel.CheckFD over the materialized relation.
func TestGuardAgreesWithCheckFD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sigma := xmlkey.MustParseSet(badKeys)
	tr := transform.MustParseString(badTransform)
	cover := coverFor(t, sigma, tr.Rules[0])
	for i := 0; i < 40; i++ {
		doc := randomBookDoc(rng)
		ms := NewMemorySink()
		res, err := Run(context.Background(), tr, strings.NewReader(doc), ms, Options{
			Covers: map[string][]rel.FD{"chapter": cover},
		})
		if err != nil {
			t.Fatal(err)
		}
		inst := ms.Relations()["chapter"]
		guardViolated := map[string]bool{}
		for _, v := range res.Violations {
			guardViolated[v.FD] = true
		}
		for _, fd := range cover {
			oracle := len(inst.CheckFD(fd)) > 0
			if guardViolated[fd.Format(inst.Schema)] != oracle {
				t.Errorf("doc %s: FD %s: guard=%v oracle=%v",
					doc, fd.Format(inst.Schema), guardViolated[fd.Format(inst.Schema)], oracle)
			}
		}
	}
}

func randomBookDoc(rng *rand.Rand) string {
	root := xmltree.NewElement("db")
	vals := []string{"1", "2"}
	names := []string{"A", "B"}
	books := 1 + rng.Intn(3)
	for i := 0; i < books; i++ {
		b := xmltree.NewElement("book")
		if rng.Intn(4) > 0 {
			b.SetAttr("isbn", vals[rng.Intn(len(vals))])
		}
		root.AddChild(b)
		chapters := rng.Intn(3)
		for j := 0; j < chapters; j++ {
			c := xmltree.NewElement("chapter")
			if rng.Intn(4) > 0 {
				c.SetAttr("number", vals[rng.Intn(len(vals))])
			}
			b.AddChild(c)
			if rng.Intn(4) > 0 {
				n := xmltree.NewElement("name")
				n.AddText(names[rng.Intn(len(names))])
				c.AddChild(n)
			}
		}
	}
	return xmltree.NewTree(root).XMLString()
}

// TestBudgetAborts: each cap aborts with its typed resource error, and an
// aborted run returns no Result (abort-soundness). A cap is a ceiling, not
// a trip wire: a document whose FD index holds exactly k entries shreds
// under a cap of k and aborts under k−1.
func TestBudgetAborts(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	type input struct {
		tr   *transform.Transformation
		doc  string
		opts Options
	}
	wl := workload.Generate(workload.Config{Fields: 8, Depth: 3, Keys: 6})
	generated := input{transform.MustTransformation(wl.Rule), wl.Document(3).XMLString(), Options{
		Sigma: wl.Sigma, Covers: map[string][]rel.FD{wl.Rule.Schema.Name: coverFor(t, wl.Sigma, wl.Rule)},
	}}
	// Two chapters of one book: the index of inBook, number → name holds
	// exactly two entries.
	ch := transform.MustParseString(badTransform)
	twoEntries := input{ch,
		`<db><book isbn="1"><chapter number="1"><name>A</name></chapter>` +
			`<chapter number="2"><name>A</name></chapter></book></db>`,
		Options{Covers: map[string][]rel.FD{"chapter": coverFor(t, xmlkey.MustParseSet(badKeys), ch.Rules[0])}},
	}
	cases := []struct {
		name     string
		in       input
		b        budget.Budget
		resource budget.Resource // empty: the run completes
	}{
		{"tuples", generated, budget.Budget{MaxTuples: 5}, budget.Tuples},
		{"fd-index", generated, budget.Budget{MaxFDIndexEntries: 3}, budget.FDIndexEntries},
		{"depth", generated, budget.Budget{MaxStreamDepth: 2}, budget.StreamDepth},
		{"fd-index at the cap", twoEntries, budget.Budget{MaxFDIndexEntries: 2}, ""},
		{"fd-index past the cap", twoEntries, budget.Budget{MaxFDIndexEntries: 1}, budget.FDIndexEntries},
	}
	for _, c := range cases {
		ctx := budget.With(context.Background(), c.b)
		res, err := Run(ctx, c.in.tr, strings.NewReader(c.in.doc), Discard{}, c.in.opts)
		if c.resource == "" {
			if err != nil || res == nil {
				t.Errorf("%s: err = %v, want a Result", c.name, err)
			}
			continue
		}
		if res != nil {
			t.Errorf("%s: aborted run returned a partial Result", c.name)
		}
		var be *budget.Error
		if !errors.As(err, &be) || be.Resource != c.resource {
			t.Errorf("%s: err = %v, want *budget.Error{Resource: %q}", c.name, err, c.resource)
		}
	}
}

// booksDoc renders one isbn-1 book per name, each holding chapter 1 with
// that name: every book after the first breaks the book key, and every
// name other than the first breaks the propagated inBook, number → name.
func booksDoc(names ...string) string {
	var b strings.Builder
	b.WriteString("<db>")
	for _, n := range names {
		fmt.Fprintf(&b, `<book isbn="1"><chapter number="1"><name>%s</name></chapter></book>`, n)
	}
	b.WriteString("</db>")
	return b.String()
}

// TestMaxViolationsAborts: MaxViolations caps the key and FD violations
// of a run together, and the run aborts once their total reaches the cap
// — the rule stream.Validator.RunCtx applies to key violations alone.
func TestMaxViolationsAborts(t *testing.T) {
	sigma := xmlkey.MustParseSet(badKeys)
	tr := transform.MustParseString(badTransform)
	covers := map[string][]rel.FD{"chapter": coverFor(t, sigma, tr.Rules[0])}
	cases := []struct {
		name      string
		sigma     []xmlkey.Key
		doc       string
		max       int
		abort     bool
		keys, fds int // the Result's violations when the run does not abort
	}{
		{"key-only below the cap", sigma, booksDoc("A", "A", "A"), 3, false, 2, 0},
		{"key-only at the cap", sigma, booksDoc("A", "A", "A", "A"), 3, true, 0, 0},
		{"fd-only at the cap", nil, booksDoc("A", "B", "C", "D"), 3, true, 0, 0},
		{"key and fd past the cap", sigma, booksDoc("A", "B", "C"), 3, true, 0, 0},
		{"fd-only past the cap", nil, booksDoc("N0", "N1", "N2", "N3", "N4", "N5"), 2, true, 0, 0},
	}
	for _, c := range cases {
		ctx := budget.With(context.Background(), budget.Budget{MaxViolations: c.max})
		res, err := Run(ctx, tr, strings.NewReader(c.doc), Discard{}, Options{Sigma: c.sigma, Covers: covers})
		if c.abort {
			var be *budget.Error
			if res != nil || !errors.As(err, &be) || be.Resource != budget.Violations {
				t.Errorf("%s: got (%+v, %v), want a violations budget abort", c.name, res, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(res.StreamViolations) != c.keys || len(res.Violations) != c.fds {
			t.Errorf("%s: %d key and %d FD violations, want %d and %d",
				c.name, len(res.StreamViolations), len(res.Violations), c.keys, c.fds)
		}
	}
}

// TestCancellation: a canceled context aborts promptly with its error and
// leaks no goroutines.
func TestCancellation(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr := transform.MustParseString(badTransform)
	res, err := Run(ctx, tr, strings.NewReader(badDoc), Discard{}, Options{})
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Errorf("got (%v, %v), want canceled", res, err)
	}
}

// TestMetricsExported: the pipeline moves all four shred.* counters.
func TestMetricsExported(t *testing.T) {
	set := metrics.NewSet()
	sigma := xmlkey.MustParseSet(badKeys)
	tr := transform.MustParseString(badTransform)
	cover := coverFor(t, sigma, tr.Rules[0])
	_, err := Run(context.Background(), tr, strings.NewReader(badDoc), Discard{}, Options{
		Sigma: sigma, Covers: map[string][]rel.FD{"chapter": cover}, Metrics: set,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := set.Counter("shred.tuples").Value(); n != 2 {
		t.Errorf("shred.tuples = %d, want 2", n)
	}
	if n := set.Counter("shred.batches").Value(); n < 1 {
		t.Errorf("shred.batches = %d, want >= 1", n)
	}
	if n := set.Counter("shred.fd_checks").Value(); n < 2 {
		t.Errorf("shred.fd_checks = %d, want >= 2", n)
	}
	if n := set.Counter("shred.violations").Value(); n < 1 {
		t.Errorf("shred.violations = %d, want >= 1", n)
	}
}

// TestMalformedInput: truncated and multi-root documents are typed decode
// or format errors, never partial Results.
func TestMalformedInput(t *testing.T) {
	tr := transform.MustParseString(badTransform)
	for _, doc := range []string{"", "<db><book>", "<a/><b/>", "junk <a/>"} {
		res, err := Run(context.Background(), tr, strings.NewReader(doc), Discard{}, Options{})
		if res != nil || err == nil {
			t.Errorf("doc %q: got (%v, %v), want error and nil result", doc, res, err)
		}
	}
}

// cancelSink cancels the caller's context on its first WriteBatch and
// counts the batches it receives.
type cancelSink struct {
	cancel  context.CancelFunc
	batches int
}

func (s *cancelSink) Open(*rel.Schema) (TableWriter, error) { return s, nil }
func (s *cancelSink) Close() error                          { return nil }

func (s *cancelSink) WriteBatch([]rel.Tuple) error {
	if s.batches++; s.batches == 1 {
		s.cancel()
	}
	return nil
}

// TestCancelDuringWritesReturnsNoResult: a cancellation that lands while
// the last block is being written must still end the run in the
// context's error with no Result — the sink never got every row. The
// 46,656-row block also shows the rule stops within ctxCheckRows rows.
func TestCancelDuringWritesReturnsNoResult(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	wl := workload.Generate(workload.Config{Fields: 8, Depth: 3, Keys: 6, Width: 2})
	tr := transform.MustTransformation(wl.Rule)
	const batch = 8
	for _, c := range []struct {
		fanout int
		rows   int
	}{{3, 729}, {6, 46_656}} {
		doc := wl.Document(c.fanout).XMLString()
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelSink{cancel: cancel}
		res, err := Run(ctx, tr, strings.NewReader(doc), sink, Options{BatchSize: batch})
		cancel()
		if res != nil || !errors.Is(err, context.Canceled) {
			t.Errorf("%d rows: got (%+v, %v), want (nil, context.Canceled)", c.rows, res, err)
		}
		if after := sink.batches - 1; after > ctxCheckRows/batch {
			t.Errorf("%d rows: %d batches after the cancel, want at most %d", c.rows, after, ctxCheckRows/batch)
		}
	}
}

// TestTupleBudgetSaturates: products of 2^63 and 2^64 rows — one element
// chain per root slot, fanout^width rows — must abort with the typed
// tuple budget error under MaxTuples = math.MaxInt, not wrap into a small
// count and start enumerating.
func TestTupleBudgetSaturates(t *testing.T) {
	testutil.GuardGoroutines(t, 5*time.Second)
	for _, c := range []struct{ width, fanout int }{{9, 128}, {16, 16}} {
		wl := workload.Generate(workload.Config{Fields: c.width, Depth: 1, Keys: 1, Width: c.width})
		doc := wl.Document(c.fanout).XMLString()
		tr := transform.MustTransformation(wl.Rule)
		ctx, cancel := context.WithTimeout(budget.With(context.Background(), budget.Budget{MaxTuples: math.MaxInt}), 10*time.Second)
		res, err := Run(ctx, tr, strings.NewReader(doc), Discard{}, Options{})
		cancel()
		var be *budget.Error
		if res != nil || !errors.As(err, &be) || be.Resource != budget.Tuples {
			t.Errorf("%d^%d rows: got (%v, %v), want a tuple budget abort", c.fanout, c.width, res, err)
		}
	}
}

// TestTupleKeyEncodingUnchanged pins appendTupleKey: byte-equal to the
// fmt.Fprintf form it replaced, distinct for tuples that differ only in
// NULL vs "" or in values holding ':' or '\x00', and in agreement with
// rel.Relation.Dedup on which tuples are duplicates.
func TestTupleKeyEncodingUnchanged(t *testing.T) {
	n, v := rel.NullValue, rel.V
	tuples := []rel.Tuple{
		{n, v("")}, {v(""), n}, {v(""), v("")}, {n, n},
		{v("a:b"), v("c")}, {v("a"), v("b:c")}, {v("1:a"), v("")}, {v(""), v("1:a")},
		{v("a\x00"), v("b")}, {v("a"), v("\x00b")}, {v("a\x00V1:b"), n}, {v("a"), v("b")},
		{v("N"), n}, {n, v("N")}, {v("a:b"), v("c")}, {n, v("")}, {v("a"), v("\x00b")},
	}
	reference := func(t rel.Tuple) string {
		var b strings.Builder
		for _, x := range t {
			if x.Null {
				b.WriteString("N\x00")
			} else {
				fmt.Fprintf(&b, "V%d:%s\x00", len(x.S), x.S)
			}
		}
		return b.String()
	}
	r := rel.NewRelation(rel.MustSchema("t", "a", "b"))
	seen := map[string]bool{}
	var kept []rel.Tuple
	for _, tu := range tuples {
		key := string(appendTupleKey(nil, tu))
		if want := reference(tu); key != want {
			t.Errorf("key(%v) = %q, want %q", tu, key, want)
		}
		if !seen[key] {
			seen[key] = true
			kept = append(kept, tu)
		}
		r.MustInsert(tu)
	}
	r.Dedup()
	if len(r.Tuples) != len(kept) {
		t.Fatalf("keys keep %d tuples, Relation.Dedup keeps %d", len(kept), len(r.Tuples))
	}
	for i := range kept {
		if string(appendTupleKey(nil, kept[i])) != string(appendTupleKey(nil, r.Tuples[i])) {
			t.Errorf("tuple %d: keys keep %v, Relation.Dedup keeps %v", i, kept[i], r.Tuples[i])
		}
	}
	if len(kept) != len(tuples)-3 {
		t.Errorf("%d distinct tuples, want %d (three planted repeats)", len(kept), len(tuples)-3)
	}
}
