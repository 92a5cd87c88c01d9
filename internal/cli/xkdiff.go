package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"

	"xkprop/internal/diffcheck"
	"xkprop/internal/metrics"
)

// RunXkdiff runs the differential cross-check harness: seeded workloads
// through every redundant decision path — compiled kernel vs recursive
// oracle, minimumCover vs naive, in-process vs a live xkserve over TCP,
// verdicts vs searched witnesses, indexed vs fixpoint closure, the
// streaming shredder vs the tree evaluator with propagated-FD soundness
// checked on every accepted document, and the zero-copy tokenizer vs the
// encoding/xml adapter token for token — reporting
// (and shrinking) any disagreement. Exit 0 = all lanes agree, 1 = a
// disagreement survived, 2 = the run was aborted or misconfigured.
func RunXkdiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "random seed; equal seeds replay byte-identically")
	cases := fs.Int("cases", 25, "random cases per randomized lane")
	lanes := fs.String("lanes", "", "comma-separated lane subset (default: all of "+
		strings.Join(diffcheck.LaneNames, ",")+")")
	jsonPath := fs.String("json", "", "also write the full report to this file (atomic rename)")
	deadline := DeadlineFlag(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg := diffcheck.Config{Seed: *seed, Cases: *cases, Metrics: metrics.NewSet()}
	if *lanes != "" {
		for _, l := range strings.Split(*lanes, ",") {
			if l = strings.TrimSpace(l); l != "" {
				cfg.Lanes = append(cfg.Lanes, l)
			}
		}
	}

	ctx, cancel := deadline.Context()
	defer cancel()
	rep, err := diffcheck.Run(ctx, cfg)
	if err != nil {
		return failOrAbort(stderr, "xkdiff", err)
	}

	for _, lr := range rep.Lanes {
		line := fmt.Sprintf("xkdiff: lane %-12s %4d cases", lr.Lane, lr.Cases)
		if lr.Confirmed > 0 {
			// Confirmed is lane-specific: witnessed refutations for the
			// witness lane, accepted documents (non-vacuous soundness
			// checks) for the shred lane.
			switch lr.Lane {
			case "shred":
				line += fmt.Sprintf(", %d accepted docs soundness-checked", lr.Confirmed)
			case "tokenizer":
				line += fmt.Sprintf(", %d docs accepted by both decoders", lr.Confirmed)
			default:
				line += fmt.Sprintf(", %d negatives confirmed by witness", lr.Confirmed)
			}
		}
		if n := len(lr.Disagreements); n > 0 {
			line += fmt.Sprintf(", %d DISAGREEMENTS", n)
		}
		fmt.Fprintln(stdout, line)
		for _, d := range lr.Disagreements {
			fmt.Fprintf(stdout, "  disagreement (shrunk):\n")
			for _, k := range d.Keys {
				fmt.Fprintf(stdout, "    key:  %s\n", k)
			}
			if d.Transform != "" {
				fmt.Fprintf(stdout, "    rule: %s\n", strings.ReplaceAll(d.Transform, "\n", "\n          "))
			}
			if d.FD != "" {
				fmt.Fprintf(stdout, "    fd:   %s\n", d.FD)
			}
			for _, f := range d.FDs {
				fmt.Fprintf(stdout, "    fd:   %s\n", f)
			}
			if d.Key != "" {
				fmt.Fprintf(stdout, "    φ:    %s\n", d.Key)
			}
			fmt.Fprintf(stdout, "    got:  %s\n    want: %s\n", d.Got, d.Want)
			if d.Detail != "" {
				fmt.Fprintf(stdout, "    detail: %s\n", d.Detail)
			}
		}
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fail(stderr, "xkdiff", err)
		}
		data = append(data, '\n')
		if err := writeFileAtomic(*jsonPath, data); err != nil {
			return fail(stderr, "xkdiff", err)
		}
		fmt.Fprintf(stdout, "xkdiff: report written to %s\n", *jsonPath)
	}

	if rep.Disagreements > 0 {
		fmt.Fprintf(stdout, "xkdiff: FAIL: %d disagreements over %d cases (seed %d; replay with -seed %d)\n",
			rep.Disagreements, rep.Cases, rep.Seed, rep.Seed)
		return 1
	}
	fmt.Fprintf(stdout, "xkdiff: PASS: %d cases, all lanes agree (seed %d)\n", rep.Cases, rep.Seed)
	return 0
}
