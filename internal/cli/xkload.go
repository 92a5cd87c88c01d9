package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xkprop"
	"xkprop/internal/budget"
	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/sqlgen"
	"xkprop/internal/testutil"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// RunXkload is the streaming loader: it shreds XML documents (stdin,
// files, or directories of .xml files) through internal/shred's one-pass
// pipeline into a pluggable sink, validating the key set and enforcing
// the propagated minimum cover online as the tuples flow. Exit codes:
// 0 clean (or violations found without -strict), 1 violations under
// -strict, 2 usage, input or abort.
func RunXkload(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trPath := fs.String("transform", "", "path to the transformation DSL file")
	keysPath := fs.String("keys", "",
		"XML key file; enables in-pass validation and online enforcement of the propagated minimum cover")
	format := fs.String("format", "csv", "sink format with -out: csv, ndjson or sql")
	dialect := fs.String("dialect", "standard", "SQL dialect for -format sql: standard, sqlite or mysql")
	out := fs.String("out", "", "output directory (omitted: count and check without materializing)")
	batch := fs.Int("batch", 0, fmt.Sprintf("tuples per sink write (0 = %d)", shred.DefaultBatchSize))
	strict := fs.Bool("strict", false, "exit 1 when any key or propagated FD is violated")
	maxTuples := fs.Int("max-tuples", 0,
		"budget: abort after this many raw tuples, counted before dedup (0 = no cap; aborts, never evicts)")
	maxFD := fs.Int("max-fd-entries", 0,
		"budget: abort past this many entries in the FD hash indexes (0 = no cap; aborts, never evicts)")
	maxDepth := fs.Int("max-depth", 10_000, "budget: max element nesting (0 = no cap)")
	maxViol := fs.Int("max-violations", 10_000,
		"budget: abort once key and FD violations together reach this many (0 = no cap)")
	dl := DeadlineFlag(fs)
	smoke := fs.Bool("smoke", false,
		"self-test: shred a generated corpus, verify counts, FD enforcement and goroutine hygiene, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *smoke {
		return runLoadSmoke(stdout, stderr)
	}
	if *trPath == "" {
		return usage(stderr,
			"xkload -transform rules.dsl [-keys keys.txt] [-out dir] [document.xml ...]   (stdin when no documents; or: xkload -smoke)")
	}
	tr, err := loadTransformation(*trPath)
	if err != nil {
		return fail(stderr, "xkload", err)
	}
	c, err := shred.Compile(tr)
	if err != nil {
		return fail(stderr, "xkload", err)
	}

	ctx, cancel := dl.Context()
	defer cancel()
	if ctx == nil {
		ctx = context.Background()
	}
	ctx = budget.With(ctx, budget.Budget{
		MaxTuples:         *maxTuples,
		MaxFDIndexEntries: *maxFD,
		MaxStreamDepth:    *maxDepth,
		MaxViolations:     *maxViol,
	})

	// The propagated minimum cover per rule, all rules sharing one decider
	// so implication memoization is reused across tables.
	var sigma []xkprop.Key
	var covers map[string][]rel.FD
	if *keysPath != "" {
		if sigma, err = loadKeys(*keysPath); err != nil {
			return fail(stderr, "xkload", err)
		}
		dec := xmlkey.NewDecider(sigma)
		covers = map[string][]rel.FD{}
		for _, rule := range tr.Rules {
			cover, err := core.NewEngineWithDecider(dec, rule).MinimumCoverCtx(ctx)
			if err != nil {
				return failOrAbort(stderr, "xkload", err)
			}
			covers[rule.Schema.Name] = cover
		}
	}

	if *out != "" {
		if _, err := shred.SinkFor(*format, *out, sqlgen.Options{}); err != nil {
			return fail(stderr, "xkload", err)
		}
	}
	inputs, err := expandInputs(fs.Args())
	if err != nil {
		return fail(stderr, "xkload", err)
	}

	exit := 0
	multi := len(inputs) > 1
	for _, path := range inputs {
		var r io.Reader
		name := path
		if path == "" {
			r, name = os.Stdin, "stdin"
		} else {
			f, err := os.Open(path)
			if err != nil {
				return fail(stderr, "xkload", err)
			}
			r = f
		}
		var sink shred.Sink = shred.Discard{}
		if *out != "" {
			dir := *out
			if multi {
				dir = filepath.Join(*out, stem(name))
			}
			sink, _ = shred.SinkFor(*format, dir, sqlgen.Options{Dialect: *dialect})
		}
		res, err := c.Run(ctx, r, sink, shred.Options{
			BatchSize: *batch,
			Sigma:     sigma,
			Covers:    covers,
		})
		if f, ok := r.(*os.File); ok && f != os.Stdin {
			f.Close()
		}
		if err != nil {
			return failOrAbort(stderr, "xkload", err)
		}
		reportLoad(stdout, name, res, sigma != nil)
		if !res.OK() && *strict {
			exit = 1
		}
	}
	return exit
}

// expandInputs resolves the positional arguments: none means stdin (the
// empty path), a directory means its *.xml files sorted by name.
func expandInputs(args []string) ([]string, error) {
	if len(args) == 0 {
		return []string{""}, nil
	}
	var out []string
	for _, a := range args {
		fi, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			out = append(out, a)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(a, "*.xml"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("directory %s holds no .xml files", a)
		}
		sort.Strings(matches)
		out = append(out, matches...)
	}
	return out, nil
}

func stem(name string) string {
	base := filepath.Base(name)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// reportLoad prints one input's outcome: the verdict line, per-table
// tallies, then every violation with its offsets and lineage.
func reportLoad(w io.Writer, name string, res *shred.Result, validated bool) {
	verdict := "loaded"
	if validated {
		verdict = "accepted"
		if !res.Accepted() {
			verdict = "REJECTED"
		}
	}
	fmt.Fprintf(w, "xkload: %s: %s, %d tuples, %d key violations, %d FD violations\n",
		name, verdict, res.Tuples(), len(res.StreamViolations), len(res.Violations))
	for _, t := range res.Tables {
		fmt.Fprintf(w, "  table %s: %d tuples in %d batches\n", t.Table, t.Tuples, t.Batches)
	}
	for _, v := range res.StreamViolations {
		fmt.Fprintf(w, "  key violation: %s\n", v.String())
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "%s", indent("FD violation: "+v.String()))
	}
}

// loadViolDoc repeats (isbn, number) with different chapter names, so the
// book key and the propagated FD inBook, number → name both break.
const loadViolDoc = `<db><book isbn="1"><chapter number="1"><name>A</name></chapter></book>` +
	`<book isbn="1"><chapter number="1"><name>B</name></chapter></book></db>`

// runLoadSmoke is xkload -smoke: an end-to-end self-test of the shredding
// data plane with no external inputs. It shreds a generated corpus with
// exactly known cardinalities into a CSV sink, confirms the violating
// fixture yields a typed FDViolation with lineage, and verifies no
// goroutine the runs started outlives them.
func runLoadSmoke(stdout, stderr io.Writer) int {
	watermark := testutil.GoroutineWatermark()
	failed := false
	errorf := func(format string, args ...any) {
		fmt.Fprintf(stderr, "load-smoke: FAIL: "+format+"\n", args...)
		failed = true
	}

	// --- Corpus with exact counts: a Depth-3 chain document of fanout 3
	// shreds to 3^3 = 27 tuples, zero violations under its own keys. ---
	wl := workload.Generate(workload.Config{Fields: 8, Depth: 3, Keys: 6})
	doc := wl.Document(3).XMLString()
	tr := transform.MustTransformation(wl.Rule)
	cover, err := core.NewEngine(wl.Sigma, wl.Rule).MinimumCoverCtx(context.Background())
	if err != nil {
		errorf("minimum cover: %v", err)
		return 1
	}
	covers := map[string][]rel.FD{wl.Rule.Schema.Name: cover}

	tmp, err := os.MkdirTemp("", "xkload-smoke-")
	if err != nil {
		errorf("tempdir: %v", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	res, err := shred.Run(context.Background(), tr, strings.NewReader(doc),
		shred.NewCSVSink(tmp), shred.Options{
			BatchSize: 8, Sigma: wl.Sigma, Covers: covers,
		})
	switch {
	case err != nil:
		errorf("corpus: %v", err)
	case !res.OK():
		errorf("corpus not clean: %d key + %d FD violations",
			len(res.StreamViolations), len(res.Violations))
	case res.Tuples() != 27:
		errorf("corpus: %d tuples, want exactly 27", res.Tuples())
	default:
		fmt.Fprintln(stdout, "load-smoke: corpus: 27/27 tuples, clean")
	}

	// --- The violating fixture must produce a typed FDViolation carrying
	// lineage, and the validator must reject the document. ---
	sigma := xmlkey.MustParseSet(smokeKeys)
	btr := transform.MustParseString(smokeTransform)
	bcover, err := core.NewEngine(sigma, btr.Rules[0]).MinimumCoverCtx(context.Background())
	if err != nil {
		errorf("fixture cover: %v", err)
		return 1
	}
	res, err = shred.Run(context.Background(), btr, strings.NewReader(loadViolDoc),
		shred.Discard{}, shred.Options{
			Sigma: sigma, Covers: map[string][]rel.FD{"chapter": bcover},
		})
	switch {
	case err != nil:
		errorf("violating fixture: %v", err)
	case res.Accepted():
		errorf("validator accepted the duplicate-isbn fixture")
	case len(res.Violations) == 0:
		errorf("violating fixture produced no FDViolation")
	case len(res.Violations[0].Tuples) == 0 || len(res.Violations[0].Tuples[0].Lineage) == 0:
		errorf("FDViolation carries no lineage: %+v", res.Violations[0])
	default:
		fmt.Fprintf(stdout, "load-smoke: fixture: rejected with %d FD violation(s), lineage attached\n",
			len(res.Violations))
	}

	// --- Goroutine hygiene: no goroutine may outlive the runs. ---
	if err := testutil.WaitGoroutinesReturn(watermark, 10*time.Second); err != nil {
		errorf("%v", err)
	}

	if failed {
		return 1
	}
	fmt.Fprintln(stdout, "load-smoke: ok")
	return 0
}
