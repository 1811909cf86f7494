package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"skybridge/internal/bench"
)

func TestExperimentNamesIncludeScaling(t *testing.T) {
	// -list prints experimentNames; the catalog must expose every
	// selector, including the multicore scaling sweep.
	found := map[string]bool{}
	for _, n := range experimentNames {
		if found[n] {
			t.Errorf("duplicate experiment name %q", n)
		}
		found[n] = true
	}
	for _, want := range []string{"table2", "fig8", "fig9", "scaling", "tenants", "skew"} {
		if !found[want] {
			t.Errorf("experiment %q missing from -list output", want)
		}
	}
}

func TestExperimentDescriptionsNonEmpty(t *testing.T) {
	// -list prints "name  description"; every distinct selector must carry
	// a one-line description.
	for _, u := range bench.ExperimentInfo() {
		if u.Desc == "" {
			t.Errorf("experiment %q has no description", u.Name)
		}
	}
}

func TestSelectExperimentsAll(t *testing.T) {
	sel, err := selectExperiments("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != len(experimentNames) {
		t.Errorf("all selected %d, want %d", len(sel), len(experimentNames))
	}
	for _, n := range experimentNames {
		if !sel[n] {
			t.Errorf("all did not select %q", n)
		}
	}
}

func TestSelectExperimentsList(t *testing.T) {
	sel, err := selectExperiments(" Table2, fig7 ,table2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 || !sel["table2"] || !sel["fig7"] {
		t.Errorf("sel = %v, want {table2, fig7}", sel)
	}
}

func TestSelectExperimentsUnknownRejected(t *testing.T) {
	// An unknown name must error even when mixed with valid ones
	// (previously it was silently ignored).
	if _, err := selectExperiments("table2,bogus"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := selectExperiments("nope"); err == nil {
		t.Error("unknown-only selection accepted")
	}
	if _, err := selectExperiments(""); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := selectExperiments(" , ,"); err == nil {
		t.Error("blank selection accepted")
	}
}

func TestSelectExperimentsAllPlusUnknown(t *testing.T) {
	if _, err := selectExperiments("all,bogus"); err == nil {
		t.Error("'all,bogus' accepted; unknown names must always be rejected")
	}
}

func TestParseBenchOut(t *testing.T) {
	outs := map[string]string{}
	for _, v := range []string{"host=a.json", "Scaling=b.json", "async=c.json", "db=d.json", "tenants=e.json", "skew=f.json"} {
		if err := parseBenchOut(outs, v); err != nil {
			t.Fatalf("parseBenchOut(%q): %v", v, err)
		}
	}
	if outs["host"] != "a.json" || outs["scaling"] != "b.json" || outs["async"] != "c.json" || outs["db"] != "d.json" || outs["tenants"] != "e.json" || outs["skew"] != "f.json" {
		t.Errorf("outs = %v", outs)
	}
	for _, bad := range []string{"host=", "host", "=x.json", "fig7=x.json", "async=dup.json", "hostbench=x.json"} {
		if err := parseBenchOut(outs, bad); err == nil {
			t.Errorf("parseBenchOut(%q) accepted; want error", bad)
		}
	}
}

// TestRunHostBench checks -benchout host's document: its keys in order,
// the experiments in catalog order, serial_sec as the sum of the
// per-experiment times, a parallel time, and the caller's cell worker
// count restored afterwards.
func TestRunHostBench(t *testing.T) {
	prev := bench.SetJobs(3)
	defer bench.SetJobs(prev)
	path := filepath.Join(t.TempDir(), "host.json")
	if err := runHostBench(path, map[string]bool{"fig7": true, "table2": true}, bench.DefaultOptions, 2); err != nil {
		t.Fatal(err)
	}
	if got := bench.SetJobs(3); got != 3 {
		t.Errorf("cell workers after runHostBench = %d, want 3", got)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dec := json.NewDecoder(bytes.NewReader(buf))
	if _, err := dec.Token(); err != nil { // the opening brace
		t.Fatal(err)
	}
	var keys []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key.(string))
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
	}
	wantKeys := []string{"num_cpu", "gomaxprocs", "go_version", "experiments", "experiment_sec",
		"serial_sec", "jobs", "parallel_sec", "parallel_speedup"}
	if !slices.Equal(keys, wantKeys) {
		t.Errorf("keys = %v, want %v", keys, wantKeys)
	}

	var res bench.HostBenchResult
	if err := json.Unmarshal(buf, &res); err != nil {
		t.Fatal(err)
	}
	if want := []string{"table2", "fig7"}; !slices.Equal(res.Experiments, want) {
		t.Errorf("experiments = %v, want %v", res.Experiments, want)
	}
	var sum float64
	for _, name := range res.Experiments {
		sum += res.ExperimentSec[name]
	}
	if len(res.ExperimentSec) != len(res.Experiments) || res.SerialSec != sum {
		t.Errorf("serial_sec = %v, experiment_sec = %v: want serial_sec the sum of the experiments' times",
			res.SerialSec, res.ExperimentSec)
	}
	if res.ParallelSec <= 0 || res.Jobs != 2 {
		t.Errorf("parallel_sec = %v on %v jobs, want a positive time on 2", res.ParallelSec, res.Jobs)
	}
}

// TestCheckKnobs: every paper-scale flag set to 0 or -1 is rejected with
// its name and value (below 1 they hang, panic, or silently run a default
// instead); skybench's defaults and CI's small knobs are accepted.
func TestCheckKnobs(t *testing.T) {
	for _, name := range []string{"records", "ops", "kvops", "clients", "opskind", "preload", "scale", "tenants"} {
		for _, v := range []string{"0", "-1"} {
			o := bench.DefaultOptions
			fs := flag.NewFlagSet("skybench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			for _, k := range knobs(&o) {
				fs.IntVar(k.p, k.name, *k.p, k.usage)
			}
			if err := fs.Parse([]string{"-" + name, v}); err != nil {
				t.Fatalf("-%s %s: %v", name, v, err)
			}
			err := checkKnobs(o)
			if want := "-" + name + " " + v; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("-%s %s: checkKnobs = %v, want an error naming %q", name, v, err, want)
			}
		}
	}
	ci := bench.Options{Records: 200, Ops: 20, KVOps: 192, Clients: 2, OpsPerKind: 8, Preload: 50, Scale: 8, Tenants: 64}
	for _, o := range []bench.Options{bench.DefaultOptions, ci} {
		if err := checkKnobs(o); err != nil {
			t.Errorf("checkKnobs(%+v) = %v, want nil", o, err)
		}
	}
}
