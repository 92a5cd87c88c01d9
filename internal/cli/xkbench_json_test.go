package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestXkbenchJSONRoundTrip runs the -json mode on the smallest grid point
// and validates the report with -check-json.
func TestXkbenchJSONRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark; skipped in -short mode")
	}
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	if code := RunXkbench([]string{"-json", out, "-max-fields", "10"}, &stdout, &stderr); code != 0 {
		t.Fatalf("xkbench -json exited %d: %s", code, stderr.String())
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if rep.Suite != "pathkernel" {
		t.Fatalf("suite = %q, want pathkernel", rep.Suite)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("got %d results for the fields=10 grid, want 1", len(rep.Results))
	}
	r := rep.Results[0]
	if r.Name != "MinimumCover/fields=10/depth=5/keys=10" {
		t.Errorf("result name = %q", r.Name)
	}
	if r.NsPerOp <= 0 || r.Iterations <= 0 {
		t.Errorf("%s: bad timing %g ns/op over %d iterations", r.Name, r.NsPerOp, r.Iterations)
	}
	if r.CoverSize == 0 {
		t.Errorf("%s: empty cover", r.Name)
	}

	stdout.Reset()
	stderr.Reset()
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
		{"wrong-suite", `{"suite":"other","results":[{"name":"x","iterations":1,"ns_per_op":1}]}`, "suite"},
		{"empty", `{"suite":"pathkernel","results":[]}`, "no results"},
		{"bad-timing", `{"suite":"pathkernel","results":[{"name":"x","iterations":0,"ns_per_op":0}]}`, "non-positive timing"},
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

// TestXkbenchCheckAgainst re-runs a one-point pathkernel baseline
// (max_fields 10): a baseline point the fresh run produces is compared
// and passes, a point it does not produce fails the check by name.
func TestXkbenchCheckAgainst(t *testing.T) {
	if testing.Short() {
		t.Skip("runs testing.Benchmark; skipped in -short mode")
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		point string
		code  int
		want  string
	}{
		{"MinimumCover/fields=10/depth=5/keys=10", 0, "1 points within 25%"},
		{"MinimumCover/no-such-point", 1, "MinimumCover/no-such-point"},
	} {
		p := filepath.Join(dir, "baseline.json")
		body := `{"suite":"pathkernel","max_fields":10,"results":[{"name":"` + tc.point + `","iterations":1,"ns_per_op":1e12}]}`
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		var stdout, stderr bytes.Buffer
		code := RunXkbench([]string{"-check-against", p}, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stdout.String()+stderr.String(), tc.want) {
			t.Errorf("%s: exit %d, want %d with %q\nstdout:\n%s\nstderr:\n%s",
				tc.point, code, tc.code, tc.want, stdout.String(), stderr.String())
		}
	}
}
