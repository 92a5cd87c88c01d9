package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// generated renders every workload's generated inputs for a seed as one
// byte string.
func generated(seed int64) []byte {
	var b bytes.Buffer
	for _, d := range bulkCorpus(rand.New(rand.NewSource(seed))) {
		fmt.Fprintf(&b, "%v %d %d\n", d.tables, d.keyViolations, d.dups)
		b.Write(d.xml)
	}
	for _, d := range cartesianCorpus(rand.New(rand.NewSource(seed))) {
		fmt.Fprintf(&b, "%v\n", d.tables)
		b.Write(d.xml)
	}
	for _, s := range designSet(rand.New(rand.NewSource(seed))) {
		fmt.Fprintf(&b, "%s\n%s\n%s\n%s|%s|%s|%v\n", s.name, s.keys, s.dsl, s.probeRule, s.probeTrue, s.probeFalse, s.naive)
		b.Write(s.docXML)
	}
	rng := rand.New(rand.NewSource(seed))
	mix := newServeMix(rng)
	var schedules [][]*sample
	for i := 0; i < baseBlocks; i++ {
		schedules = append(schedules, mix.schedule(rng, fmt.Sprintf("b%d", i), baseRate, 40*time.Millisecond))
	}
	for k, rate := range ladder {
		schedules = append(schedules, mix.rungSchedule(seed, k, rate, 50*time.Millisecond))
	}
	for _, sched := range schedules {
		for _, s := range sched {
			fmt.Fprintf(&b, "%d %s ", s.due, s.req.ep)
			b.Write(s.req.body)
		}
	}
	return b.Bytes()
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b := generated(7), generated(7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a, generated(8)) {
		t.Fatal("two seeds generated the same inputs")
	}
}

// benchSpec is BENCHMARK.json's metric lists.
func benchSpec(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, x := range s.EndToEnd {
		endToEnd[x.Name] = x.Unit
	}
	for _, x := range s.PerLayer {
		perLayer[x.Name] = x.Unit
	}
	return endToEnd, perLayer
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestShortRuns runs every workload briefly, untraced and traced: each
// passes its output checks and prints exactly the metrics BENCHMARK.json
// lists for its mode, with the listed units.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := benchSpec(t)
	work := t.TempDir()
	for _, w := range []string{"bulk", "cartesian", "serve", "design"} {
		for trace, want := range []map[string]string{endToEnd, perLayer} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w, "--seed", "3", "--seconds", "0.4",
					"--trace", fmt.Sprint(trace), "--work", work}
				if code := mainErr(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: %+v\n%s", res, errOut.String())
				}
				for name, m := range res.Metrics {
					if !nameRE.MatchString(name) {
						t.Errorf("metric name %q", name)
					}
					if unit, ok := want[name]; !ok || unit != m.Unit {
						t.Errorf("printed %s [%s], not in BENCHMARK.json with that unit", name, m.Unit)
					}
				}
				for name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("%s not printed", name)
					}
				}
			})
		}
	}
}

func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join("..", "BENCHMARK.json")
	write := func(name, cpu string, mbs float64) string {
		p := filepath.Join(dir, name)
		body := fmt.Sprintf("fingerprint {\"cpu\":%q,\"nproc\":2,\"gomaxprocs\":2,\"go\":\"go1\"}\n"+
			"run {\"workload\":\"bulk\",\"seed\":1,\"seconds\":1,\"trace\":0}\n"+
			"{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"load.mb_s\":{\"value\":%g,\"unit\":\"MB/s\"}}}\n", cpu, mbs)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	var out, errOut bytes.Buffer
	if code := runCompare(spec, write("a", "x", 20), write("b", "y", 20), &out, &errOut); code != 2 {
		t.Fatalf("different fingerprints: exit %d, want 2", code)
	}
	if code := runCompare(spec, write("c", "x", 20), write("d", "x", 20), &out, &errOut); code != 0 {
		t.Fatalf("same results: exit %d, want 0: %s", code, out.String())
	}
	if code := runCompare(spec, write("e", "x", 20), write("f", "x", 10), &out, &errOut); code != 1 {
		t.Fatalf("halved throughput: exit %d, want 1", code)
	}
}
