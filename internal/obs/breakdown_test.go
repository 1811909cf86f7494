package obs

import (
	"encoding/json"
	"testing"
)

// rec builds a CallRecord whose phases exactly partition [start, end).
func rec(start uint64, phases ...uint64) CallRecord {
	r := CallRecord{Kind: CallAsync, Start: start}
	end := start
	for i, p := range phases {
		r.Phases[CallPhase(i)] = p
		end += p
	}
	r.End = end
	return r
}

func TestCallRecordPhaseSum(t *testing.T) {
	r := rec(100, 10, 20, 30, 0, 5, 35)
	var sum uint64
	for _, v := range r.Phases {
		sum += v
	}
	if r.E2E() != 100 || sum != r.E2E() {
		t.Fatalf("E2E = %d, phase sum = %d, want 100", r.E2E(), sum)
	}
}

func TestBreakdownSummaryOmitsUnusedPhases(t *testing.T) {
	b := NewBreakdown()
	// A sync-shaped record: only crossing and service cycles.
	r := CallRecord{Kind: CallSync, Start: 0, End: 100}
	r.Phases[PhaseCrossing] = 60
	r.Phases[PhaseService] = 40
	b.Observe(&r)
	b.Observe(&r)
	sum := b.Summary()
	if sum.Calls != 2 {
		t.Fatalf("Calls = %d, want 2", sum.Calls)
	}
	if sum.E2E.Max != 100 || sum.E2E.Count != 2 {
		t.Fatalf("E2E summary = %+v", sum.E2E)
	}
	if _, ok := sum.Phases["crossing"]; !ok {
		t.Error("crossing phase missing from summary")
	}
	if _, ok := sum.Phases["service"]; !ok {
		t.Error("service phase missing from summary")
	}
	for _, unused := range []string{"ring_wait", "wakeup_delivery", "client_spin", "reap_delay"} {
		if _, ok := sum.Phases[unused]; ok {
			t.Errorf("unused phase %q present in summary", unused)
		}
	}
	// The summary serializes deterministically (sorted map keys).
	j1, _ := json.Marshal(sum)
	j2, _ := json.Marshal(b.Summary())
	if string(j1) != string(j2) {
		t.Error("BreakdownSummary serialization not deterministic")
	}
}

func TestBreakdownMergeMatchesSingle(t *testing.T) {
	var a, b, whole Breakdown
	for i := 0; i < 100; i++ {
		r := rec(uint64(i), uint64(i%7), uint64(i%3), uint64(i%11), 0, uint64(i%2), 1)
		whole.Observe(&r)
		if i%2 == 0 {
			a.Observe(&r)
		} else {
			b.Observe(&r)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Fatal("merged breakdown differs from single-sink state")
	}
}

func TestFlightRecorderWarmupAndDump(t *testing.T) {
	f := NewFlightRecorder(FlightConfig{Ring: 8, MinCalls: 16, MaxDumps: 2})
	// A massive first call must not dump: the distribution is unseeded.
	warm := rec(0, 1<<30)
	f.Observe(&warm)
	if len(f.Dumps()) != 0 {
		t.Fatal("dump fired before MinCalls observations")
	}
	f.Reset()
	// Seed a tight distribution of exactly-100-cycle calls: the quantile
	// threshold sits at 100, so in-distribution calls never exceed it.
	for i := 0; i < 100; i++ {
		r := rec(uint64(1000+i*200), 50, 0, 50)
		f.Observe(&r)
	}
	if len(f.Dumps()) != 0 {
		t.Fatalf("in-distribution calls dumped: %d", len(f.Dumps()))
	}
	// A tail outlier dumps, with the threshold computed from the calls
	// before it and the chain holding its causal context.
	out := rec(50_000, 4000, 0, 4000)
	f.Observe(&out)
	dumps := f.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("dumps = %d, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Trigger != out {
		t.Errorf("trigger = %+v, want the outlier", d.Trigger)
	}
	if d.Threshold == 0 || d.Threshold >= out.E2E() {
		t.Errorf("threshold = %d, want in (0, %d)", d.Threshold, out.E2E())
	}
	if len(d.Chain) != 8 {
		t.Fatalf("chain length = %d, want full ring 8", len(d.Chain))
	}
	for i := 1; i < len(d.Chain); i++ {
		if d.Chain[i].Start < d.Chain[i-1].Start {
			t.Fatal("chain not in chronological order")
		}
	}
	// The chain holds the records immediately preceding the trigger, not
	// the trigger itself.
	if last := d.Chain[len(d.Chain)-1]; last.Start >= out.Start {
		t.Errorf("chain tail starts at %d, want before trigger %d", last.Start, out.Start)
	}

	// Past MaxDumps, triggers are counted, not stored.
	f.Observe(&out)
	f.Observe(&out)
	f.Observe(&out)
	if len(f.Dumps()) != 2 {
		t.Fatalf("dumps = %d, want capped at 2", len(f.Dumps()))
	}
	if f.Suppressed() == 0 {
		t.Error("suppressed counter not incremented past MaxDumps")
	}

	f.Reset()
	if f.Calls() != 0 || len(f.Dumps()) != 0 || f.Suppressed() != 0 {
		t.Error("Reset did not clear the recorder")
	}
}

func TestFlightRecorderThresholdExcludesCandidate(t *testing.T) {
	// Two identical outliers in a row: the first dumps against the tight
	// baseline; by the second, the first has raised the p-quantile only
	// through the histogram (observed after judgment), so the second must
	// be judged against a distribution that includes the first.
	f := NewFlightRecorder(FlightConfig{Ring: 4, MinCalls: 8, MaxDumps: 8, Quantile: 0.5})
	for i := 0; i < 8; i++ {
		r := rec(uint64(i*10), 10)
		f.Observe(&r)
	}
	big := rec(1000, 500)
	f.Observe(&big)
	if len(f.Dumps()) != 1 {
		t.Fatalf("first outlier: dumps = %d, want 1", len(f.Dumps()))
	}
	if thr := f.Dumps()[0].Threshold; thr != 10 {
		t.Errorf("threshold = %d, want the 10-cycle baseline median", thr)
	}
}

func TestCallObserverNilSafety(t *testing.T) {
	var o *CallObserver
	r := rec(0, 10)
	o.Observe(&r) // nil observer
	o.Reset()
	o = &CallObserver{} // nil components
	o.Observe(&r)
	o.Reset()
	o = &CallObserver{Breakdown: NewBreakdown()}
	o.Observe(&r)
	if o.Breakdown.Calls() != 1 {
		t.Fatal("breakdown-only observer did not record")
	}
}
