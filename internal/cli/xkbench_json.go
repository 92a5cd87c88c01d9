package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// This file holds xkbench's machine-readable mode, shared by every
// suite. A suite is a list of cells and a gate table. One runner
// measures cells with testing.Benchmark, so iteration counts are
// calibrated as in `go test -bench`. -json applies the suite's gate
// table and writes the report atomically; -check-json reads a report
// and applies the same table; -check-against re-runs the cells a
// baseline names and compares ns/op.

// benchVal is one key of a report point and its value: a number, a
// string or a bool.
type benchVal struct {
	key string
	val any
}

// benchPoint is one measured cell as a report records it, its keys in
// the order they are written: name, the cell's parameters, its op where
// the suite has one, iterations, ns_per_op, allocs_per_op, bytes_per_op,
// mb_per_sec where the body set bytes, and the cell's facts.
type benchPoint []benchVal

// value returns the value under key, or nil when the point lacks it.
func (p benchPoint) value(key string) any {
	for _, kv := range p {
		if kv.key == key {
			return kv.val
		}
	}
	return nil
}

func (p benchPoint) name() string {
	s, _ := p.value("name").(string)
	return s
}

// num returns the number under key. A point that lacks the key fails
// the gate that reads it: a missing value never reads as zero.
func (p benchPoint) num(key string) (float64, error) {
	v := p.value(key)
	if v == nil {
		return 0, fmt.Errorf("%s: missing %s", p.name(), key)
	}
	f, ok := benchNum(v)
	if !ok {
		return 0, fmt.Errorf("%s: %s is %v, not a number", p.name(), key, v)
	}
	return f, nil
}

// benchNum reads a number as a float64: a measured point holds Go ints,
// a decoded one float64s.
func benchNum(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// benchEqual compares two point values, numbers by value.
func benchEqual(a, b any) bool {
	x, xok := benchNum(a)
	y, yok := benchNum(b)
	if xok && yok {
		return x == y
	}
	return a == b
}

// MarshalJSON writes the point as one flat object in key order.
func (p benchPoint) MarshalJSON() ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, kv := range p {
		if i > 0 {
			buf.WriteByte(',')
		}
		k, _ := json.Marshal(kv.key) // a string always marshals
		v, err := json.Marshal(kv.val)
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", p.name(), kv.key, err)
		}
		buf.Write(k)
		buf.WriteByte(':')
		buf.Write(v)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// UnmarshalJSON reads a flat object, keeping its key order, so a report
// read and written again is unchanged.
func (p *benchPoint) UnmarshalJSON(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, err := dec.Token(); err != nil || t != json.Delim('{') {
		return fmt.Errorf("point %s is not an object", data)
	}
	*p = nil
	for dec.More() {
		t, err := dec.Token()
		if err != nil {
			return err
		}
		var v any
		if err := dec.Decode(&v); err != nil {
			return err
		}
		*p = append(*p, benchVal{t.(string), v})
	}
	return nil
}

// benchReport is the JSON document every suite writes.
type benchReport struct {
	Suite      string       `json:"suite"`
	GoVersion  string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Points     []benchPoint `json:"points"`
}

// benchCell is one measured point of a suite. setup builds the cell's
// input and returns its facts, written after the measurements, and the
// body testing.Benchmark times. Set-up runs only for the cells a run
// measures.
type benchCell struct {
	name   string
	params []benchVal
	op     string // empty when the suite records no op
	setup  func() (facts []benchVal, body func(b *testing.B), err error)
}

// benchGate is one row of a suite's gate table. It checks point p of a
// report whose points are all, and names p in its error.
type benchGate func(p benchPoint, all []benchPoint) error

// benchSuite is one xkbench suite: its cells, and the gates a report of
// it passes before -json writes it and when -check-json reads it.
type benchSuite struct {
	name  string
	cells func() []benchCell
	gates []benchGate
}

// benchSuites holds every suite under its -suite name.
var benchSuites = map[string]benchSuite{
	"pathkernel": pathkernelSuite, "fdclosure": fdclosureSuite, "shred": shredSuite, "tokenizer": tokenizerSuite,
}

// gateOneOf is the gate row "key is one of vals".
func gateOneOf(key string, vals ...any) benchGate {
	return func(p benchPoint, _ []benchPoint) error {
		v := p.value(key) // nil when missing, which matches no val
		for _, want := range vals {
			if benchEqual(v, want) {
				return nil
			}
		}
		return fmt.Errorf("%s: %s is %v, want one of %v", p.name(), key, v, vals)
	}
}

// gateRange is the gate row "key lies in [lo, hi]", on the points whose
// values equal every pair in where.
func gateRange(key string, lo, hi float64, where ...benchVal) benchGate {
	return func(p benchPoint, _ []benchPoint) error {
		for _, w := range where {
			v := p.value(w.key)
			if v == nil {
				return fmt.Errorf("%s: missing %s", p.name(), w.key)
			}
			if !benchEqual(v, w.val) {
				return nil
			}
		}
		v, err := p.num(key)
		if err != nil {
			return err
		}
		if v >= lo && v <= hi {
			return nil
		}
		return fmt.Errorf("%s: %s is %g, want within [%g, %g]", p.name(), key, v, lo, hi)
	}
}

// check applies the gates every suite shares, then s's gate table.
func (s benchSuite) check(rep *benchReport) error {
	if rep.Suite != s.name {
		return fmt.Errorf("suite is %q, want %q", rep.Suite, s.name)
	}
	if len(rep.Points) == 0 {
		return errors.New("no points")
	}
	for _, p := range rep.Points {
		if p.name() == "" {
			return errors.New("point with empty name")
		}
		iters, err1 := p.num("iterations")
		ns, err2 := p.num("ns_per_op")
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if ns <= 0 || iters <= 0 {
			return fmt.Errorf("%s: non-positive timing (%g ns/op over %g iterations)", p.name(), ns, iters)
		}
		allocs, err1 := p.num("allocs_per_op")
		mem, err2 := p.num("bytes_per_op")
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if allocs < 0 || mem < 0 {
			return fmt.Errorf("%s: negative allocation counters", p.name())
		}
		for _, g := range s.gates {
			if err := g(p, rep.Points); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchRun measures cells in order and prints one line per point.
func benchRun(w io.Writer, suite string, cells []benchCell) (*benchReport, error) {
	rep := &benchReport{Suite: suite, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, c := range cells {
		facts, body, err := c.setup()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			body(b)
		})
		if r.N == 0 {
			return nil, fmt.Errorf("%s: the benchmark body failed", c.name)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		p := append(benchPoint{{"name", c.name}}, c.params...)
		if c.op != "" {
			p = append(p, benchVal{"op", c.op})
		}
		p = append(p, benchVal{"iterations", r.N}, benchVal{"ns_per_op", ns},
			benchVal{"allocs_per_op", r.AllocsPerOp()}, benchVal{"bytes_per_op", r.AllocedBytesPerOp()})
		extra := len(p)
		if r.Bytes > 0 {
			p = append(p, benchVal{"mb_per_sec", float64(r.Bytes) / ns * 1e3})
		}
		p = append(p, facts...)
		rep.Points = append(rep.Points, p)

		fmt.Fprintf(w, "%-56s  %12.0f ns/op  %8d B/op  %6d allocs/op",
			c.name, ns, r.AllocedBytesPerOp(), r.AllocsPerOp())
		for _, kv := range p[extra:] {
			if f, ok := kv.val.(float64); ok {
				fmt.Fprintf(w, "  %s=%.1f", kv.key, f)
			} else {
				fmt.Fprintf(w, "  %s=%v", kv.key, kv.val)
			}
		}
		fmt.Fprintln(w)
	}
	return rep, nil
}

// writeBenchReport applies s's gate table to rep and, if every gate
// passes, writes rep to path atomically.
func writeBenchReport(path string, s benchSuite, rep *benchReport) error {
	if err := s.check(rep); err != nil {
		return fmt.Errorf("refusing to write %s: %w", path, err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}

// readBenchReport reads a report and the suite its marker names.
func readBenchReport(path string) (*benchReport, benchSuite, error) {
	var rep benchReport
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, &rep)
	}
	s, ok := benchSuites[rep.Suite]
	if err == nil && !ok {
		err = fmt.Errorf("suite is %q, want pathkernel, fdclosure, shred, or tokenizer", rep.Suite)
	}
	return &rep, s, err
}

// benchRegressTolerance is the ratio above which -check-against calls a
// point a regression: a fresh run more than 25% slower than the
// committed baseline fails the check. Only slowdowns fail — a faster
// fresh run is never an error.
const benchRegressTolerance = 1.25

// checkBenchAgainst re-runs, on the current build, the cells a baseline
// report names and compares each one's ns/op with the baseline's. It is
// the `make bench-check` entry point. ns/op compares only on the machine
// that produced the baseline, under the same Go version and GOMAXPROCS;
// the report records the last two, so a baseline that lacks them or
// differs is refused before anything runs.
func checkBenchAgainst(w io.Writer, path string) error {
	base, s, err := readBenchReport(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	goVersion, procs := runtime.Version(), runtime.GOMAXPROCS(0)
	if base.GoVersion != goVersion || base.GOMAXPROCS != procs {
		return fmt.Errorf("%s: refusing to compare: the baseline records go %q at gomaxprocs %d, this run is go %q at gomaxprocs %d",
			path, base.GoVersion, base.GOMAXPROCS, goVersion, procs)
	}
	cells := map[string]benchCell{}
	for _, c := range s.cells() {
		cells[c.name] = c
	}
	var run []benchCell
	var was []float64
	for _, p := range base.Points {
		c, ok := cells[p.name()]
		if !ok {
			return fmt.Errorf("%s: baseline point %q has no cell in the %s suite", path, p.name(), s.name)
		}
		ns, err := p.num("ns_per_op")
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		run = append(run, c)
		was = append(was, ns)
	}
	fmt.Fprintf(w, "xkbench: re-running %d %s points against %s\n", len(run), s.name, path)
	fresh, err := benchRun(w, s.name, run)
	if err != nil {
		return err
	}
	regressed := 0
	for i, p := range fresh.Points {
		now, _ := p.num("ns_per_op") // benchRun records it on every point
		verdict := "ok"
		if now > was[i]*benchRegressTolerance {
			verdict = "REGRESSION"
			regressed++
		}
		fmt.Fprintf(w, "xkbench: %s %s: %.0f ns/op vs baseline %.0f ns/op (%+.0f%%)\n",
			verdict, p.name(), now, was[i], (now/was[i]-1)*100)
	}
	if regressed > 0 {
		return fmt.Errorf("%s: %d of %d points regressed more than %.0f%%",
			path, regressed, len(run), (benchRegressTolerance-1)*100)
	}
	fmt.Fprintf(w, "xkbench: %d points within %.0f%% of %s\n",
		len(run), (benchRegressTolerance-1)*100, path)
	return nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsync and rename, so an interrupted run (ctrl-C mid-write,
// OOM kill, power loss) can never leave a truncated BENCH_*.json for
// `make verify`'s check-json step to mis-report. The directory is synced
// best-effort so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // durability of the rename; some filesystems reject dir fsync
		d.Close()
	}
	return nil
}
