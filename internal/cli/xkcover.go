package cli

import (
	"flag"
	"fmt"
	"io"

	"xkprop"
	"xkprop/internal/paperdata"
	"xkprop/internal/rel"
)

// RunXkcover computes a minimum cover and optional BCNF/3NF refinement.
func RunXkcover(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkcover", flag.ContinueOnError)
	fs.SetOutput(stderr)
	keysPath := fs.String("keys", "", "path to the key file")
	trPath := fs.String("transform", "", "path to the transformation DSL file")
	ruleName := fs.String("rule", "", "name of the universal relation's rule (default: the only rule)")
	normalize := fs.String("normalize", "", "also decompose: bcnf or 3nf")
	naive := fs.Bool("naive", false, "cross-check with the exponential Algorithm naive")
	why := fs.Bool("why", false, "annotate each cover FD with the Σ keys that justify it")
	derive := fs.String("derive", "", `print an Armstrong derivation of this FD from the cover, e.g. "a, b -> c"`)
	demo := fs.Bool("demo", false, "use the paper's Example 3.1 universal relation and keys")
	parallel := parallelFlag(fs)
	deadline := DeadlineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *normalize != "" && *normalize != "bcnf" && *normalize != "3nf" {
		return usage(stderr, "xkcover: -normalize must be bcnf or 3nf")
	}

	var sigma []xkprop.Key
	var rule *xkprop.Rule
	var err error
	switch {
	case *demo:
		sigma = paperdata.Keys()
		rule = paperdata.UniversalRule()
	default:
		if *keysPath == "" || *trPath == "" {
			return usage(stderr, "xkcover -keys keys.txt -transform universal.dsl [-rule U] [-normalize bcnf|3nf]")
		}
		if sigma, err = loadKeys(*keysPath); err != nil {
			return fail(stderr, "xkcover", err)
		}
		var tr *xkprop.Transformation
		if tr, err = loadTransformation(*trPath); err != nil {
			return fail(stderr, "xkcover", err)
		}
		switch {
		case *ruleName != "":
			rule = tr.Rule(*ruleName)
			if rule == nil {
				fmt.Fprintf(stderr, "xkcover: no rule %q\n", *ruleName)
				return 2
			}
		case len(tr.Rules) == 1:
			rule = tr.Rules[0]
		default:
			fmt.Fprintln(stderr, "xkcover: multiple rules; pick one with -rule")
			return 2
		}
	}

	fmt.Fprintf(stdout, "universal relation %s(%d fields), %d XML keys\n",
		rule.Schema.Name, rule.Schema.Len(), len(sigma))
	ctx, cancel := deadline.Context()
	defer cancel()
	eng := xkprop.NewEngine(sigma, rule).SetWorkers(*parallel)
	var anns []xkprop.AnnotatedFD
	if *why {
		// AnnotatedCover leaves its cover in the engine's cache, where
		// CachedCoverCtx finds it: one build serves both.
		if anns, err = eng.AnnotatedCover(ctx); err != nil {
			return failOrAbort(stderr, "xkcover", err)
		}
	}
	cover, err := eng.CachedCoverCtx(ctx)
	if err != nil {
		return failOrAbort(stderr, "xkcover", err)
	}
	fmt.Fprintf(stdout, "minimum cover (%d FDs):\n", len(cover))
	io.WriteString(stdout, indent(xkprop.FormatFDs(rule.Schema, cover)))

	if *why {
		fmt.Fprintln(stdout, "provenance:")
		for _, a := range anns {
			io.WriteString(stdout, indent(a.Format(rule.Schema)))
		}
	}

	if *naive {
		n, err := xkprop.NewEngine(sigma, rule).SetWorkers(*parallel).NaiveCoverCtx(ctx)
		if err != nil {
			return failOrAbort(stderr, "xkcover", err)
		}
		fmt.Fprintf(stdout, "naive cover (%d FDs):\n", len(n))
		io.WriteString(stdout, indent(xkprop.FormatFDs(rule.Schema, n)))
		if xkprop.EquivalentCovers(cover, n) {
			fmt.Fprintln(stdout, "covers are equivalent ✓")
		} else {
			fmt.Fprintln(stdout, "COVERS DIFFER — this is a bug")
			return 1
		}
	}

	if *derive != "" {
		fd, err := xkprop.ParseFD(rule.Schema, *derive)
		if err != nil {
			return fail(stderr, "xkcover", err)
		}
		steps, ok := rel.Derivation(cover, fd)
		if !ok {
			fmt.Fprintf(stdout, "%s does NOT follow from the cover\n", fd.Format(rule.Schema))
			return 1
		}
		io.WriteString(stdout, rel.FormatDerivation(rule.Schema, fd, steps))
	}

	switch *normalize {
	case "bcnf":
		frags := xkprop.BCNF(cover, rule.Schema.All())
		fmt.Fprintln(stdout, "BCNF decomposition:")
		io.WriteString(stdout, indent(xkprop.FormatFragments(rule.Schema, frags)))
		fmt.Fprintf(stdout, "lossless join: %v\n", xkprop.LosslessJoin(cover, rule.Schema.All(), frags))
	case "3nf":
		frags := xkprop.ThreeNF(cover, rule.Schema.All())
		fmt.Fprintln(stdout, "3NF synthesis:")
		io.WriteString(stdout, indent(xkprop.FormatFragments(rule.Schema, frags)))
		fmt.Fprintf(stdout, "lossless join: %v, dependency preserving: %v\n",
			xkprop.LosslessJoin(cover, rule.Schema.All(), frags),
			xkprop.PreservesDependencies(cover, frags))
	}
	return 0
}
