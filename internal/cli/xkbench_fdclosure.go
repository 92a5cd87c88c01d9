package cli

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"xkprop/internal/rel"
)

// This file implements xkbench's fdclosure suite: a micro-grid over the
// relational FD closure hot path, comparing the retained textbook
// fixpoint (rel.Closure) against the indexed LINCLOSURE engine
// (rel.FDIndex.Closure) on cascade workloads, plus the two consumers
// that sit directly on top of it (Minimize and CandidateKeys). The grid
// sweeps fields × fds × LHS width; workloads are seeded so two runs on
// the same code measure the same instances, which is what makes
// -check-against's point-by-point comparison meaningful.

// fdclosureSeed pins the workload generator. Changing it invalidates
// committed BENCH_fdclosure.json baselines for -check-against.
const fdclosureSeed = 42

// fdclosureWorkload builds a cascade workload: a shuffled chain
// π[0]→π[1]→…→π[n-1] where each FD's extra LHS attributes are drawn
// from earlier chain positions, so from start {π[0]} every FD
// eventually fires and the closure is the full universe. Shuffling the
// FD list makes the textbook fixpoint's pass count adversarial (Θ(n)
// passes in the worst case) — exactly the regime LINCLOSURE's
// counter-based single pass is built for.
func fdclosureWorkload(fields, nfds, lhsw int) (fds []rel.FD, start, attrs rel.AttrSet) {
	rng := rand.New(rand.NewSource(fdclosureSeed))
	perm := rng.Perm(fields)
	for i := 0; i < nfds; i++ {
		pos := i % (fields - 1)
		lhs := rel.AttrSet{}.With(perm[pos])
		for k := 1; k < lhsw; k++ {
			lhs = lhs.With(perm[rng.Intn(pos+1)])
		}
		fds = append(fds, rel.NewFD(lhs, rel.AttrSet{}.With(perm[pos+1])))
	}
	rng.Shuffle(len(fds), func(i, j int) { fds[i], fds[j] = fds[j], fds[i] })
	start = rel.AttrSet{}.With(perm[0])
	for i := 0; i < fields; i++ {
		attrs = attrs.With(i)
	}
	return fds, start, attrs
}

// Sinks keep the compiler from eliding benchmark bodies.
var (
	fdclosureSinkSet  rel.AttrSet
	fdclosureSinkFDs  []rel.FD
	fdclosureSinkKeys []rel.AttrSet
)

var fdclosureSuite = benchSuite{
	name:  "fdclosure",
	cells: fdclosureCells,
	gates: []benchGate{
		gateOneOf("op", "closure_fixpoint", "closure_indexed", "mincover", "candkeys"),
		fdclosureSpeedup,
	},
}

// fdclosureCells is the published micro-grid: both attribute universes
// cross the 64-bit word boundary (two and three AttrSet words), FD
// counts from trivial to well past the ≥50 regime the speedup floor is
// stated over, and narrow vs wide LHSs. Universes this size are the
// regime the index exists for — on tiny schemas (≈20 attributes) both
// paths finish in well under a microsecond and the indexed query's
// fixed costs (scratch checkout, counter copy) dominate. The two
// consumers are measured on the narrow-LHS cells only, to keep the
// suite's wall time reasonable.
func fdclosureCells() []benchCell {
	var cells []benchCell
	for _, fields := range []int{100, 160} {
		for _, fds := range []int{10, 50, 200} {
			for _, lhsw := range []int{2, 4} {
				ops := []string{"closure_fixpoint", "closure_indexed"}
				if lhsw == 2 {
					ops = append(ops, "mincover", "candkeys")
				}
				for _, op := range ops {
					cells = append(cells, benchCell{
						name:   fmt.Sprintf("FDClosure/fields=%d/fds=%d/lhsw=%d/%s", fields, fds, lhsw, op),
						params: []benchVal{{"fields", fields}, {"fds", fds}, {"lhsw", lhsw}},
						op:     op,
						setup: func() ([]benchVal, func(*testing.B), error) {
							return nil, fdclosureBody(fields, fds, lhsw, op), nil
						},
					})
				}
			}
		}
	}
	return cells
}

// fdclosureBody returns the testing.B body of op on a cell's workload.
func fdclosureBody(fields, nfds, lhsw int, op string) func(b *testing.B) {
	fds, start, attrs := fdclosureWorkload(fields, nfds, lhsw)
	// Index construction stays outside the loop: consumers (covers,
	// candidate keys, the registry) compile once and query many times,
	// so the steady-state query is the number that matters.
	ix := rel.NewFDIndex(fds)
	run := map[string]func(){
		"closure_fixpoint": func() { fdclosureSinkSet = rel.Closure(fds, start) },
		"closure_indexed":  func() { fdclosureSinkSet = ix.Closure(start) },
		"mincover":         func() { fdclosureSinkFDs = rel.Minimize(fds) },
		"candkeys":         func() { fdclosureSinkKeys = rel.CandidateKeys(fds, attrs, 4) },
	}[op]
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			run()
		}
	}
}

// fdclosureMinSpeedup is the floor the fdclosure gate table sets:
// indexed closure must beat the fixpoint by at least this factor on
// every grid cell with fds >= 50.
const fdclosureMinSpeedup = 5.0

// fdclosureSpeedup is the gate row for fdclosureMinSpeedup. It pairs an
// indexed point with the fixpoint point of the same (fields, fds, lhsw),
// wherever the two sit in the report.
func fdclosureSpeedup(p benchPoint, all []benchPoint) error {
	cell, err := fdclosureCell(p)
	if err != nil || p.value("op") != "closure_indexed" || cell[1] < 50 {
		return err
	}
	for _, q := range all {
		// A point that lacks a parameter fails this gate on its own turn.
		if qc, _ := fdclosureCell(q); qc != cell || q.value("op") != "closure_fixpoint" {
			continue
		}
		fix, err1 := q.num("ns_per_op")
		idx, err2 := p.num("ns_per_op")
		if err := errors.Join(err1, err2); err != nil {
			return err
		}
		if speedup := fix / idx; speedup < fdclosureMinSpeedup {
			return fmt.Errorf("%s: indexed closure only %.2fx faster than fixpoint, want >= %.1fx",
				p.name(), speedup, fdclosureMinSpeedup)
		}
		return nil
	}
	return fmt.Errorf("%s: no matching closure_fixpoint point", p.name())
}

// fdclosureCell reads a point's (fields, fds, lhsw).
func fdclosureCell(p benchPoint) (cell [3]float64, err error) {
	for i, key := range []string{"fields", "fds", "lhsw"} {
		if cell[i], err = p.num(key); err != nil {
			return cell, err
		}
	}
	return cell, nil
}
