package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"skybridge/internal/fs"
)

// smokeOps runs about a second's worth of a workload's ops.
func smokeOps(wl workload) int { return wl.opsPerSec }

// simMetrics runs wl once and returns its simulated metrics by name,
// with the failed-op count.
func simMetrics(t *testing.T, wl workload, cfg runConfig, ops int) (map[string]metric, int) {
	t.Helper()
	r, err := wl.run(cfg, ops)
	if err != nil {
		t.Fatalf("%s: %v", wl.name, err)
	}
	out := map[string]metric{}
	for _, m := range append(endToEndMetrics(wl.name, r, 1), layerMetrics(wl.name, r)...) {
		if simulated(m.Metric) {
			out[m.Metric] = m
		}
	}
	return out, r.failed
}

// TestWorkloadsRepeatAndTraceExactly checks, per workload, that two runs
// simulate identically, that tracing perturbs nothing (the batched
// crossing count included), and that every reply verifies.
func TestWorkloadsRepeatAndTraceExactly(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			ops := smokeOps(wl)
			a, failed := simMetrics(t, wl, runConfig{seed: 7}, ops)
			b, _ := simMetrics(t, wl, runConfig{seed: 7}, ops)
			traced, _ := simMetrics(t, wl, runConfig{seed: 7, tr: newTracer()}, ops)
			for name, m := range a {
				if b[name] != m {
					t.Errorf("%s differs between identical runs: %v vs %v", name, m, b[name])
				}
				if traced[name] != m {
					t.Errorf("%s differs under tracing: %v untraced, %v traced", name, m, traced[name])
				}
			}
			if failed != 0 || a["fail_frac"].Value != 0 {
				t.Errorf("%d of %d ops failed verification", failed, ops)
			}
			if _, ok := traced["core.crossing_cyc_p50"]; !ok {
				t.Errorf("traced run reported no span metrics")
			}
		})
	}
}

// TestFineLockFailuresAreCounted runs sqlite-sb over the fine-locked FS,
// which at seed 1 returns wrong rows within a second's worth of ops: the
// failures must be counted, not fatal, and each must enter the latency
// distribution at the window length.
func TestFineLockFailuresAreCounted(t *testing.T) {
	spec := sqliteSB
	spec.lock = fs.LockFine
	const ops = 5_800
	r, err := runSQLite(runConfig{seed: 1}, spec, ops)
	if err != nil {
		t.Fatalf("a failed op ended the run: %v", err)
	}
	if r.failed == 0 {
		t.Fatal("no op failed over the fine-locked FS; if its shared device connection is fixed, run sqlite-sb over fs.LockFine and drop this test")
	}
	if r.attempted != ops {
		t.Errorf("attempted = %d, want %d", r.attempted, ops)
	}
	ms := endToEndMetrics(spec.name, r, 1)
	failFrac := ms[slices.IndexFunc(ms, func(m metric) bool { return m.Metric == "fail_frac" })]
	if want := float64(r.failed) / float64(r.attempted); failFrac.Value != want {
		t.Errorf("fail_frac = %v, want %d/%d", failFrac.Value, r.failed, r.attempted)
	}
	if s := summaryOf(r.attempted, r.failed, ms, endToEnd); s.Correct || s.Failed != r.failed {
		t.Errorf("summary correct=%v failed=%d, want false and %d", s.Correct, s.Failed, r.failed)
	}
	if top := r.lat.quantile(1); top != r.makespan {
		t.Errorf("slowest latency %d, want the failed ops at the window length %d", top, r.makespan)
	}
}

// TestEchoMatchesPaper checks the direct server call against Table 2's
// 396 cycles (within 2%).
func TestEchoMatchesPaper(t *testing.T) {
	r, err := runEcho(runConfig{seed: 1}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	call0 := float64(r.byKind[kindCall0].quantile(0.5))
	if call0 < 0.98*paperCall0 || call0 > 1.02*paperCall0 {
		t.Errorf("0-byte direct call p50 = %v cycles, want within 2%% of %d", call0, paperCall0)
	}
}

// TestBenchmarkJSONMatchesProgram checks that BENCHMARK.json names the
// workloads and metrics this program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var progWorkloads []string
	for _, wl := range workloads {
		progWorkloads = append(progWorkloads, wl.name)
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(spec.Workloads), progWorkloads},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.got) {
			t.Errorf("BENCHMARK.json %s = %v, program has %v", c.what, c.json, c.got)
		}
	}
}
