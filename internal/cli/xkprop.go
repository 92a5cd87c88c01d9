package cli

import (
	"context"
	"flag"
	"fmt"
	"io"

	"xkprop"
	"xkprop/internal/paperdata"
)

// RunXkprop checks FD propagation (Algorithm propagation, or GminimumCover
// with -check gmin).
func RunXkprop(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkprop", flag.ContinueOnError)
	fs.SetOutput(stderr)
	keysPath := fs.String("keys", "", "path to the key file")
	trPath := fs.String("transform", "", "path to the transformation DSL file")
	relName := fs.String("relation", "", "relation whose rule the FD is over")
	fdText := fs.String("fd", "", `the FD to check, e.g. "inBook, number -> name"`)
	check := fs.String("check", "propagation", "algorithm: propagation or gmin (GminimumCover)")
	witnessFlag := fs.Bool("witness", false, "on NOT PROPAGATED, search for a counterexample document")
	explain := fs.Bool("explain", false, "narrate the keyed-ancestor walk step by step")
	demo := fs.Bool("demo", false, "run the paper's Example 4.2 checks")
	deadline := DeadlineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *check != "propagation" && *check != "gmin" {
		return usage(stderr, "xkprop: -check must be propagation or gmin")
	}

	if *demo {
		return xkpropDemo(stdout)
	}
	if *keysPath == "" || *trPath == "" || *relName == "" || *fdText == "" {
		return usage(stderr, `xkprop -keys keys.txt -transform rules.dsl -relation R -fd "a, b -> c"`)
	}
	sigma, err := loadKeys(*keysPath)
	if err != nil {
		return fail(stderr, "xkprop", err)
	}
	tr, err := loadTransformation(*trPath)
	if err != nil {
		return fail(stderr, "xkprop", err)
	}
	rule := tr.Rule(*relName)
	if rule == nil {
		fmt.Fprintf(stderr, "xkprop: no rule for relation %q\n", *relName)
		return 2
	}
	fd, err := xkprop.ParseFD(rule.Schema, *fdText)
	if err != nil {
		return fail(stderr, "xkprop", err)
	}
	ctx, cancel := deadline.Context()
	defer cancel()
	if *explain {
		exs, err := xkprop.NewEngine(sigma, rule).Explain(ctx, fd)
		if err != nil {
			return failOrAbort(stderr, "xkprop", err)
		}
		code := 0
		for _, ex := range exs {
			io.WriteString(stdout, ex.String())
			if !ex.Propagated {
				code = 1
			}
		}
		return code
	}
	code := xkpropReportCtx(ctx, stdout, stderr, sigma, rule, fd, *check)
	if code == 1 && *witnessFlag {
		doc, vs, ok := xkprop.FindFDCounterexample(sigma, rule, fd, xkprop.WitnessOptions{})
		if !ok {
			fmt.Fprintln(stdout, "no counterexample found (search is incomplete)")
			return code
		}
		fmt.Fprintln(stdout, "counterexample document (satisfies the keys, violates the FD):")
		fmt.Fprint(stdout, indent(doc.XMLString()))
		for _, v := range vs {
			fmt.Fprintln(stdout, "  "+v.String())
		}
	}
	return code
}

func xkpropReport(stdout io.Writer, sigma []xkprop.Key, rule *xkprop.Rule, fd xkprop.FD, check string) int {
	return xkpropReportCtx(nil, stdout, io.Discard, sigma, rule, fd, check)
}

func xkpropReportCtx(ctx context.Context, stdout, stderr io.Writer, sigma []xkprop.Key, rule *xkprop.Rule, fd xkprop.FD, check string) int {
	e := xkprop.NewEngine(sigma, rule)
	var ok bool
	var err error
	switch check {
	case "gmin":
		ok, err = e.GPropagatesCtx(ctx, fd)
	default:
		ok, err = e.PropagatesCtx(ctx, fd)
	}
	if err != nil {
		return failOrAbort(stderr, "xkprop", err)
	}
	verdict := "NOT PROPAGATED"
	code := 1
	if ok {
		verdict = "PROPAGATED"
		code = 0
	}
	fmt.Fprintf(stdout, "%s on %s: %s\n", fd.Format(rule.Schema), rule.Schema.Name, verdict)
	return code
}

func xkpropDemo(stdout io.Writer) int {
	sigma := paperdata.Keys()
	tr := paperdata.Transform()
	fmt.Fprintln(stdout, "Example 4.2 of the paper:")
	book := tr.Rule("book")
	fd1, _ := xkprop.ParseFD(book.Schema, "isbn -> contact")
	code1 := xkpropReport(stdout, sigma, book, fd1, "propagation")
	section := tr.Rule("section")
	fd2, _ := xkprop.ParseFD(section.Schema, "inChapt, number -> name")
	code2 := xkpropReport(stdout, sigma, section, fd2, "propagation")
	if code1 == 0 && code2 == 1 {
		fmt.Fprintln(stdout, "demo results match the paper")
		return 0
	}
	fmt.Fprintln(stdout, "demo results DIVERGE from the paper")
	return 1
}
