package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"xkprop"
	"xkprop/internal/paperdata"
)

// RunXkcheck validates an XML document against a key file (or keys
// imported from an XML Schema), either by building the tree or in one
// streaming pass.
func RunXkcheck(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	keysPath := fs.String("keys", "", "path to the key file (one key per line)")
	xsdPath := fs.String("xsd", "", "import keys from an XML Schema's identity constraints instead")
	streaming := fs.Bool("stream", false, "validate in one streaming pass (large documents)")
	demo := fs.Bool("demo", false, "use the paper's Fig 1 document and Example 2.1 keys")
	quiet := fs.Bool("q", false, "suppress per-violation output")
	deadline := DeadlineFlag(fs)
	maxDepth := fs.Int("max-depth", 0,
		"streaming: reject documents nesting deeper than this many elements (0 = no cap)")
	maxViolations := fs.Int("max-violations", 0,
		"streaming: stop with an error after this many violations (0 = no cap)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !*streaming && (*maxDepth > 0 || *maxViolations > 0) {
		return usage(stderr, "xkcheck: -max-depth and -max-violations require -stream")
	}

	var docPath string
	var sigma []xkprop.Key
	var err error
	switch {
	case *demo:
		sigma = paperdata.Keys()
	case *keysPath != "" && *xsdPath != "":
		return usage(stderr, "xkcheck: -keys and -xsd are mutually exclusive")
	case *keysPath != "":
		if sigma, err = loadKeys(*keysPath); err != nil {
			return fail(stderr, "xkcheck", err)
		}
	case *xsdPath != "":
		f, err := os.Open(*xsdPath)
		if err != nil {
			return fail(stderr, "xkcheck", err)
		}
		keys, warnings, err := xkprop.XSDImport(f)
		f.Close()
		if err != nil {
			return fail(stderr, "xkcheck", err)
		}
		for _, w := range warnings {
			fmt.Fprintln(stderr, "xkcheck: warning:", w)
		}
		sigma = keys
	default:
		return usage(stderr, "xkcheck [-stream] {-keys keys.txt | -xsd schema.xsd} document.xml   (or: xkcheck -demo)")
	}
	if !*demo {
		if fs.NArg() != 1 {
			return usage(stderr, "xkcheck [-stream] {-keys keys.txt | -xsd schema.xsd} document.xml")
		}
		docPath = fs.Arg(0)
	}

	if *streaming {
		return xkcheckStream(stdout, stderr, sigma, docPath, *demo, *quiet,
			deadline, *maxDepth, *maxViolations)
	}

	var doc *xkprop.Tree
	if *demo {
		doc = paperdata.Doc()
	} else if doc, err = loadDocument(docPath); err != nil {
		return fail(stderr, "xkcheck", err)
	}

	fmt.Fprintf(stdout, "checking %d keys against document (%d nodes)\n", len(sigma), doc.Size())
	for _, k := range sigma {
		fmt.Fprintln(stdout, "  "+k.String())
	}
	vs := xkprop.ValidateKeys(doc, sigma)
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "OK: document satisfies all keys")
		return 0
	}
	fmt.Fprintf(stdout, "FAIL: %d violation(s)\n", len(vs))
	if !*quiet {
		for _, v := range vs {
			fmt.Fprintln(stdout, "  "+v.String())
		}
	}
	return 1
}

func xkcheckStream(stdout, stderr io.Writer, sigma []xkprop.Key, docPath string, demo, quiet bool,
	deadline Deadline, maxDepth, maxViolations int) int {
	var r io.Reader
	if demo {
		r = strings.NewReader(paperdata.Fig1XML)
	} else {
		f, err := os.Open(docPath)
		if err != nil {
			return fail(stderr, "xkcheck", err)
		}
		defer f.Close()
		r = f
	}
	fmt.Fprintf(stdout, "streaming %d keys\n", len(sigma))
	ctx, cancel := deadline.Context()
	defer cancel()
	if maxDepth > 0 || maxViolations > 0 {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx = xkprop.WithBudget(ctx, xkprop.Budget{
			MaxStreamDepth: maxDepth,
			MaxViolations:  maxViolations,
		})
	}
	if ctx == nil {
		ctx = context.Background()
	}
	vs, err := xkprop.StreamValidateCtx(ctx, r, sigma)
	if err != nil {
		return failOrAbort(stderr, "xkcheck", err)
	}
	if len(vs) == 0 {
		fmt.Fprintln(stdout, "OK: document satisfies all keys")
		return 0
	}
	fmt.Fprintf(stdout, "FAIL: %d violation(s)\n", len(vs))
	if !quiet {
		for _, v := range vs {
			fmt.Fprintln(stdout, "  "+v.String())
		}
	}
	return 1
}
