package cli

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestXkbenchJSONRoundTrip measures one named pathkernel cell, writes
// the report through the gate table and validates it with -check-json.
func TestXkbenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark; skipped in -short mode")
	}
	const name = "MinimumCover/fields=10/depth=5/keys=10"
	var cells []benchCell
	for _, c := range pathkernelSuite.cells() {
		if c.name == name {
			cells = append(cells, c)
		}
	}
	var stdout, stderr bytes.Buffer
	rep, err := benchRun(&stdout, "pathkernel", cells)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	if err := writeBenchReport(out, pathkernelSuite, rep); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var got benchReport
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if got.Suite != "pathkernel" || got.GoVersion != runtime.Version() || got.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Fatalf("header = %q %q %d", got.Suite, got.GoVersion, got.GOMAXPROCS)
	}
	if len(got.Points) != 1 || got.Points[0].name() != name {
		t.Fatalf("points = %v, want the one point %s", got.Points, name)
	}
	p := got.Points[0]
	var keys []string
	for _, kv := range p {
		keys = append(keys, kv.key)
	}
	if want := "name fields depth keys iterations ns_per_op allocs_per_op bytes_per_op cover_size"; strings.Join(keys, " ") != want {
		t.Errorf("keys = %v, want %s", keys, want)
	}
	if n, err := p.num("cover_size"); err != nil || n == 0 {
		t.Errorf("%s: cover_size %v (%v)", name, n, err)
	}

	if code := RunXkbench([]string{"-check-json", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("xkbench -check-json exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "OK") {
		t.Fatalf("check output %q lacks OK", stdout.String())
	}
}

// TestXkbenchCheckJSONRejects covers the failure modes of the smoke check.
func TestXkbenchCheckJSONRejects(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name, body, want string
	}{
		{"malformed", "{", "unexpected end"},
		{"wrong-suite", `{"suite":"other","points":[{"name":"x","iterations":1,"ns_per_op":1}]}`, "suite"},
		{"empty", `{"suite":"pathkernel","points":[]}`, "no points"},
		{"bad-timing", `{"suite":"pathkernel","points":[{"name":"x","iterations":0,"ns_per_op":0}]}`, "non-positive timing"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name+".json")
			if err := os.WriteFile(p, []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := RunXkbench([]string{"-check-json", p}, &stdout, &stderr); code != 1 {
				t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.want) {
				t.Fatalf("stderr %q lacks %q", stderr.String(), tc.want)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	if code := RunXkbench([]string{"-check-json", filepath.Join(dir, "missing.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit code = %d, want 1", code)
	}
}

// gatePoint is a synthetic report point that passes its suite's gates;
// set returns a copy with one key changed, or removed when v is nil.
type gatePoint map[string]any

func (p gatePoint) set(k string, v any) gatePoint {
	q := gatePoint{}
	for key, val := range p {
		q[key] = val
	}
	if v == nil {
		delete(q, k)
	} else {
		q[k] = v
	}
	return q
}

// TestXkbenchGateTable feeds synthetic reports to -check-json: each gate
// passes a point exactly at its bound and rejects, by the point's name,
// one just past it. Nothing is benchmarked.
func TestXkbenchGateTable(t *testing.T) {
	fd := func(fds int, op string, ns float64) gatePoint {
		return gatePoint{"name": fmt.Sprintf("FDClosure/fds=%d/%s", fds, op),
			"fields": 100, "fds": fds, "lhsw": 2, "op": op,
			"iterations": 10, "ns_per_op": ns, "allocs_per_op": 1, "bytes_per_op": 16}
	}
	shred := func(fanout int, ns float64, allocs int) gatePoint {
		return gatePoint{"name": fmt.Sprintf("Shred/fanout=%d", fanout), "fields": 8, "depth": 2, "keys": 4, "width": 0, "fanout": fanout,
			"op": "shred", "iterations": 10, "ns_per_op": ns, "allocs_per_op": allocs, "bytes_per_op": 100,
			"tuples": 16, "violations": 0, "doc_bytes": 940}
	}
	tok := func(op string, allocs int) gatePoint {
		return gatePoint{"name": "Tokenizer/fig1/" + op, "doc": "fig1", "op": op,
			"iterations": 10, "ns_per_op": 5000, "allocs_per_op": allocs, "bytes_per_op": 0,
			"mb_per_sec": 100.0, "tokens": 67, "doc_bytes": 556, "agrees": true}
	}
	pk := gatePoint{"name": "MinimumCover/fields=10", "fields": 10, "depth": 5, "keys": 10,
		"iterations": 10, "ns_per_op": 5e5, "allocs_per_op": 1118, "bytes_per_op": 102733, "cover_size": 10}
	sh4, sh8 := shred(4, 124392, 1203), shred(8, 456631, 4236)

	cases := []struct {
		name   string
		suite  string
		points []gatePoint
		reject string // the point named in the error; "" = the report passes
	}{
		{"common/ok", "pathkernel", []gatePoint{pk}, ""},
		{"common/empty-name", "pathkernel", []gatePoint{pk.set("name", "")}, "empty name"},
		{"common/negative-allocs", "pathkernel", []gatePoint{pk.set("allocs_per_op", -1)}, pk["name"].(string)},
		{"common/missing-bytes", "pathkernel", []gatePoint{pk.set("bytes_per_op", nil)}, pk["name"].(string)},

		{"fdclosure/speedup-at-5x", "fdclosure", []gatePoint{fd(50, "closure_fixpoint", 500), fd(50, "closure_indexed", 100)}, ""},
		{"fdclosure/speedup-at-5x-any-order", "fdclosure", []gatePoint{fd(50, "closure_indexed", 100), fd(50, "closure_fixpoint", 500)}, ""},
		{"fdclosure/speedup-below-5x", "fdclosure", []gatePoint{fd(50, "closure_fixpoint", 499.9), fd(50, "closure_indexed", 100)}, "FDClosure/fds=50/closure_indexed"},
		{"fdclosure/no-floor-below-50-fds", "fdclosure", []gatePoint{fd(10, "closure_fixpoint", 100), fd(10, "closure_indexed", 100)}, ""},
		{"fdclosure/no-fixpoint", "fdclosure", []gatePoint{fd(50, "closure_indexed", 100)}, "FDClosure/fds=50/closure_indexed"},
		{"fdclosure/unknown-op", "fdclosure", []gatePoint{fd(10, "closure_magic", 100)}, "FDClosure/fds=10/closure_magic"},
		{"fdclosure/missing-lhsw", "fdclosure", []gatePoint{fd(10, "mincover", 100).set("lhsw", nil)}, "FDClosure/fds=10/mincover"},

		{"shred/at-ceilings", "shred", []gatePoint{sh4, sh8}, ""},
		{"shred/fanout4-ns", "shred", []gatePoint{sh4.set("ns_per_op", 124393.0)}, "Shred/fanout=4"},
		{"shred/fanout4-allocs", "shred", []gatePoint{sh4.set("allocs_per_op", 1204)}, "Shred/fanout=4"},
		{"shred/fanout8-ns", "shred", []gatePoint{sh8.set("ns_per_op", 456632.0)}, "Shred/fanout=8"},
		{"shred/fanout8-allocs", "shred", []gatePoint{sh8.set("allocs_per_op", 4237)}, "Shred/fanout=8"},
		{"shred/other-cell-unbounded", "shred", []gatePoint{sh4.set("fields", 12).set("ns_per_op", 1e9).set("allocs_per_op", 1e6)}, ""},
		{"shred/no-tuples", "shred", []gatePoint{sh4.set("tuples", 0)}, "Shred/fanout=4"},
		{"shred/violations", "shred", []gatePoint{sh4.set("violations", 1)}, "Shred/fanout=4"},
		{"shred/missing-violations", "shred", []gatePoint{sh4.set("violations", nil)}, "Shred/fanout=4"},
		{"shred/empty-doc", "shred", []gatePoint{sh4.set("doc_bytes", 0)}, "Shred/fanout=4"},
		{"shred/missing-fanout", "shred", []gatePoint{sh4.set("fanout", nil)}, "Shred/fanout=4"},
		{"shred/unknown-op", "shred", []gatePoint{sh4.set("op", "load")}, "Shred/fanout=4"},

		{"tokenizer/at-bounds", "tokenizer", []gatePoint{tok("tok_fast", 0), tok("tok_std", 186)}, ""},
		{"tokenizer/fast-allocates", "tokenizer", []gatePoint{tok("tok_fast", 1)}, "Tokenizer/fig1/tok_fast"},
		{"tokenizer/disagrees", "tokenizer", []gatePoint{tok("tok_std", 186).set("agrees", false)}, "Tokenizer/fig1/tok_std"},
		{"tokenizer/missing-agrees", "tokenizer", []gatePoint{tok("tok_std", 186).set("agrees", nil)}, "Tokenizer/fig1/tok_std"},
		{"tokenizer/no-tokens", "tokenizer", []gatePoint{tok("tok_fast", 0).set("tokens", 0)}, "Tokenizer/fig1/tok_fast"},
		{"tokenizer/empty-doc", "tokenizer", []gatePoint{tok("tok_fast", 0).set("doc_bytes", 0)}, "Tokenizer/fig1/tok_fast"},
		{"tokenizer/unknown-op", "tokenizer", []gatePoint{tok("tok_slow", 0)}, "Tokenizer/fig1/tok_slow"},
	}
	dir := t.TempDir()
	for i, tc := range cases {
		data, err := json.Marshal(map[string]any{"suite": tc.suite, "go": "go1", "gomaxprocs": 1, "points": tc.points})
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, strings.ReplaceAll(tc.name, "/", "_")+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := RunXkbench([]string{"-check-json", path}, &stdout, &stderr)
		switch {
		case tc.reject == "" && code != 0:
			t.Errorf("case %d %s: exit %d, want 0: %s", i, tc.name, code, stderr.String())
		case tc.reject != "" && (code != 1 || !strings.Contains(stderr.String(), tc.reject)):
			t.Errorf("case %d %s: exit %d, want 1 naming %q: %s", i, tc.name, code, tc.reject, stderr.String())
		}
	}
}

// TestXkbenchCheckAgainst re-runs a one-point baseline of each suite,
// stamped with this run's Go version and GOMAXPROCS: the named cell is
// measured and passes against 1e12 ns/op, a point the suite has no cell
// for fails by name before anything runs, and a baseline recorded at
// another GOMAXPROCS is refused.
func TestXkbenchCheckAgainst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark; skipped in -short mode")
	}
	dir := t.TempDir()
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ suite, point string }{
		{"pathkernel", "MinimumCover/fields=10/depth=5/keys=10"},
		{"fdclosure", "FDClosure/fields=100/fds=10/lhsw=2/closure_indexed"},
		{"shred", "Shred/fields=8/depth=2/keys=4/width=0/fanout=4/shred"},
		{"tokenizer", "Tokenizer/fig1/tok_fast"},
	} {
		for _, c := range []struct {
			point string
			procs int
			code  int
			want  string
		}{
			{tc.point, procs, 0, "1 points within 25%"},
			{tc.suite + "/no-such-point", procs, 1, tc.suite + "/no-such-point"},
			{tc.point, procs + 1, 1, fmt.Sprintf("refusing to compare: the baseline records go %q at gomaxprocs %d, this run is go %q at gomaxprocs %d",
				runtime.Version(), procs+1, runtime.Version(), procs)},
		} {
			p := filepath.Join(dir, tc.suite+".json")
			data, err := json.Marshal(map[string]any{"suite": tc.suite, "go": runtime.Version(), "gomaxprocs": c.procs,
				"points": []map[string]any{{"name": c.point, "iterations": 1, "ns_per_op": 1e12}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			code := RunXkbench([]string{"-check-against", p}, &stdout, &stderr)
			if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.want) {
				t.Errorf("%s %s at gomaxprocs %d: exit %d, want %d with %q\nstdout:\n%s\nstderr:\n%s",
					tc.suite, c.point, c.procs, code, c.code, c.want, stdout.String(), stderr.String())
			}
		}
	}
}
