package diffcheck

import (
	"context"
	"encoding/json"
	"testing"

	"xkprop/internal/metrics"
)

// smokeConfig is the test grid: small enough to run in every `go test`,
// big enough that every lane does real work.
func smokeConfig() Config {
	return Config{Seed: 1, Cases: 8}
}

// TestRunAllLanesNoDisagreements: the central promise — every redundant
// decision path agrees on the smoke grid. A failure here means a real
// divergence; the report's shrunk cases are the starting point.
func TestRunAllLanesNoDisagreements(t *testing.T) {
	rep, err := Run(context.Background(), smokeConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disagreements != 0 {
		data, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("%d disagreements:\n%s", rep.Disagreements, data)
	}
	if len(rep.Lanes) != len(LaneNames) {
		t.Fatalf("ran %d lanes, want %d", len(rep.Lanes), len(LaneNames))
	}
	for i, lr := range rep.Lanes {
		if lr.Lane != LaneNames[i] {
			t.Errorf("lane %d is %q, want %q (canonical order)", i, lr.Lane, LaneNames[i])
		}
		if lr.Cases == 0 {
			t.Errorf("lane %q ran no cases", lr.Lane)
		}
	}
	// The witness lane must actually confirm some negatives, or the
	// search is dead weight.
	for _, lr := range rep.Lanes {
		if lr.Lane == "witness" && lr.Confirmed == 0 {
			t.Error("witness lane confirmed no negative verdicts")
		}
	}
}

// TestReportReplayByteIdentical: equal configs produce byte-identical
// JSON reports — the -seed replay contract of xkdiff.
func TestReportReplayByteIdentical(t *testing.T) {
	run := func() []byte {
		rep, err := Run(context.Background(), smokeConfig())
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("replay diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestLaneSubsetIndependence: a lane's case stream depends only on
// (Seed, Cases), not on which other lanes run alongside it.
func TestLaneSubsetIndependence(t *testing.T) {
	cfg := smokeConfig()
	full, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Lanes = []string{"cover"}
	only, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(only.Lanes) != 1 || only.Lanes[0].Lane != "cover" {
		t.Fatalf("subset run produced lanes %v", only.Lanes)
	}
	var fullCover *LaneReport
	for i := range full.Lanes {
		if full.Lanes[i].Lane == "cover" {
			fullCover = &full.Lanes[i]
		}
	}
	if fullCover == nil || fullCover.Cases != only.Lanes[0].Cases {
		t.Fatalf("cover lane ran %v cases alone vs %v in the full run",
			only.Lanes[0].Cases, fullCover)
	}
}

// TestUnknownLaneRejected: a typo'd -lanes value is an error up front,
// not a silently empty run.
func TestUnknownLaneRejected(t *testing.T) {
	_, err := Run(context.Background(), Config{Lanes: []string{"implication", "covfefe"}})
	if err == nil {
		t.Fatal("unknown lane accepted")
	}
}

// TestRunCancelled: a dead context aborts with its error — no partial
// report dressed up as complete.
func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := Run(ctx, smokeConfig())
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if rep != nil {
		t.Fatalf("cancelled run returned a report: %+v", rep)
	}
}

// TestMetricsCounters: the harness counts its cases and disagreements in
// the injected metric set.
func TestMetricsCounters(t *testing.T) {
	set := metrics.NewSet()
	cfg := smokeConfig()
	cfg.Metrics = set
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, lane := range LaneNames {
		total += set.Counter("diff.cases." + lane).Value()
	}
	if total != int64(rep.Cases) {
		t.Errorf("diff.cases.* sum to %d, report says %d", total, rep.Cases)
	}
	if n := set.Counter("diff.disagreements").Value(); n != int64(rep.Disagreements) {
		t.Errorf("diff.disagreements = %d, report says %d", n, rep.Disagreements)
	}
}
