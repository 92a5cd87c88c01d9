package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json that -compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// savedRuns is one output file: its machine fingerprint and, per
// workload, the untraced results it holds.
type savedRuns struct {
	fp      string
	results map[string][]result
}

// readRuns parses the concatenated output of one or more runs. Every run
// prints a fingerprint line, a run line and, last, its result line.
func readRuns(path string) (*savedRuns, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sr := &savedRuns{results: map[string][]result{}}
	var workload string
	var trace int
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "fingerprint "):
			fp := strings.TrimPrefix(line, "fingerprint ")
			if sr.fp != "" && sr.fp != fp {
				return nil, fmt.Errorf("%s mixes runs from two machines", path)
			}
			sr.fp = fp
		case strings.HasPrefix(line, "run "):
			var hdr struct {
				Workload string `json:"workload"`
				Trace    int    `json:"trace"`
			}
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "run ")), &hdr); err != nil {
				return nil, fmt.Errorf("%s: %v", path, err)
			}
			workload, trace = hdr.Workload, hdr.Trace
		case strings.HasPrefix(line, `{"correct"`):
			var res result
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return nil, fmt.Errorf("%s: %v", path, err)
			}
			if trace == 0 && workload != "" {
				sr.results[workload] = append(sr.results[workload], res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if sr.fp == "" {
		return nil, fmt.Errorf("%s holds no fingerprint", path)
	}
	return sr, nil
}

// runCompare compares head against base per workload and end-to-end
// metric: each side's median and quartile spread, the change, and whether
// it stays within the metric's bound. It refuses results from different
// machines and exits 1 when a metric regressed beyond its bound.
func runCompare(specPath, basePath, headPath string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", specPath, err)
		return 2
	}
	base, err := readRuns(basePath)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	head, err := readRuns(headPath)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	if base.fp != head.fp {
		fmt.Fprintf(stderr, "e2ebench: refusing to compare results from different machines:\n  base %s\n  head %s\n", base.fp, head.fp)
		return 2
	}
	var names []string
	for w := range base.results {
		if len(head.results[w]) > 0 {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	regressed := false
	for _, w := range names {
		fmt.Fprintf(stdout, "%s (%d base runs, %d head runs)\n", w, len(base.results[w]), len(head.results[w]))
		for _, m := range sp.EndToEnd {
			b, h := values(base.results[w], m.Name), values(head.results[w], m.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			mb, mh := median(b), median(h)
			change := 0.0
			if mb != 0 {
				change = (mh - mb) / mb
			}
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "REGRESSION"
				regressed = true
			}
			fmt.Fprintf(stdout, "  %-18s %12.6g -> %12.6g %-9s %+7.1f%%  spread %5.1f%% / %5.1f%%  bound %4.0f%%  %s\n",
				m.Name, mb, mh, m.Unit, change*100, spread(b)*100, spread(h)*100, m.Bound*100, verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / m
}
