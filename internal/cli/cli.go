// Package cli implements the command-line tools (xkcheck, xkmap, xkprop,
// xkcover, xkbench) as testable functions; the main packages under cmd/
// are thin wrappers. Each Run function returns a process exit code:
// 0 success, 1 negative verdict (violations / not propagated), 2 usage or
// input errors.
package cli

import (
	"fmt"
	"io"
	"os"
	"strings"

	"xkprop"
)

// loadKeys reads and parses a key file.
func loadKeys(path string) ([]xkprop.Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xkprop.ParseKeys(f)
}

// loadTransformation reads and parses a transformation DSL file.
func loadTransformation(path string) (*xkprop.Transformation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xkprop.ParseTransformation(f)
}

// loadDocument reads and parses an XML document.
func loadDocument(path string) (*xkprop.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return xkprop.ParseDocument(f)
}

// usage prints a one-line usage string.
func usage(stderr io.Writer, s string) int {
	fmt.Fprintln(stderr, "usage:", s)
	return 2
}

// fail prints a prefixed error.
func fail(stderr io.Writer, tool string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 2
}

// indent prefixes every non-empty line of s with two spaces.
func indent(s string) string {
	var b strings.Builder
	for _, line := range strings.Split(s, "\n") {
		if line != "" {
			b.WriteString("  " + line + "\n")
		}
	}
	return b.String()
}
