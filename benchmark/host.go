package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the kernel's peak-RSS tracking from the current
// RSS, so the next peakRSSMB covers one sampling segment. Where the
// kernel does not support it the peak stays cumulative.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// childRun is one child process's parsed output.
type childRun struct {
	metrics []metric
	sum     summary
}

func (c *childRun) value(name string) (metric, bool) {
	for _, m := range c.metrics {
		if m.Metric == name {
			return m, true
		}
	}
	return metric{}, false
}

// child re-executes this binary with args, passing its standard error
// through, and parses its output.
func child(args ...string) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%v: %w", args, err)
	}
	c := &childRun{}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	for i, line := range lines {
		if i == len(lines)-1 {
			if err := json.Unmarshal(line, &c.sum); err != nil {
				return nil, fmt.Errorf("%v: summary line: %w", args, err)
			}
			break
		}
		var m metric
		if json.Unmarshal(line, &m) == nil && m.Metric != "" {
			c.metrics = append(c.metrics, m)
		}
	}
	return c, nil
}

func baseArgs(o options, workload string) []string {
	return []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds),
	}
}

// runAll runs every workload in its own process, serially, forwarding
// their metric lines; its summary totals theirs and keys each metric by
// workload.
func runAll(o options, out io.Writer) error {
	total := summary{Correct: true, Metrics: map[string]valueUnit{}}
	var all []metric
	for _, wl := range workloads {
		args := append(baseArgs(o, wl.name), "-trace", strconv.Itoa(o.trace), "-tracedir", o.traceDir)
		c, err := child(args...)
		if err != nil {
			return err
		}
		all = append(all, c.metrics...)
		total.Correct = total.Correct && c.sum.Correct
		total.Attempted += c.sum.Attempted
		total.Failed += c.sum.Failed
		for name, v := range c.sum.Metrics {
			total.Metrics[wl.name+"/"+name] = v
		}
	}
	return emit(out, total, all)
}

// traced is -trace 1 for one workload: the same seed runs untraced
// (under the CPU profiler) and traced, each in its own process. The
// simulated results of the two must match exactly, since reading the
// simulated clock costs nothing; the per-layer metrics come from the
// traced run, the host shares from the untraced run's profile.
func traced(o options, wl *workload, out io.Writer) error {
	dir := filepath.Join(o.traceDir, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	profile := filepath.Join(dir, "cpu.pprof")
	plain, err := child(append(baseArgs(o, wl.name), "-cpuprofile", profile)...)
	if err != nil {
		return err
	}
	spans, err := child(append(baseArgs(o, wl.name), "-spans", "-tracedir", dir)...)
	if err != nil {
		return err
	}
	if plain.sum.Attempted != spans.sum.Attempted || plain.sum.Failed != spans.sum.Failed {
		return fmt.Errorf("traced run diverged: %d/%d ops failed untraced, %d/%d traced",
			plain.sum.Failed, plain.sum.Attempted, spans.sum.Failed, spans.sum.Attempted)
	}
	for _, m := range plain.metrics {
		if !simulated(m.Metric) {
			continue
		}
		t, ok := spans.value(m.Metric)
		if !ok || t.Value != m.Value || t.Samples != m.Samples {
			return fmt.Errorf("traced run diverged on %s: %v untraced, %v traced", m.Metric, m.Value, t.Value)
		}
	}

	shares, err := profileShares(profile)
	if err != nil {
		return err
	}
	// Host shares describe the untraced run; only the span statistics
	// and the overhead need the traced one.
	var ms []metric
	for _, m := range spans.metrics {
		if m.Metric != "host.gc_cpu_frac" {
			ms = append(ms, m)
		}
	}
	for _, g := range hostGroups {
		ms = append(ms, metric{wl.name, "host.frac." + g, shares[g], "ratio", 1})
	}
	gc, _ := plain.value("host.gc_cpu_frac")
	pm, _ := plain.value("host.measure_s")
	tm, _ := spans.value("host.measure_s")
	ms = append(ms,
		metric{wl.name, "host.gc_cpu_frac", gc.Value, "ratio", 1},
		metric{wl.name, "host.trace_overhead", tm.Value / pm.Value, "ratio", 1},
	)
	return emit(out, summaryOf(spans.sum.Attempted, spans.sum.Failed, ms, perLayer), ms)
}

// simulated reports whether a metric is a simulated quantity, which a
// traced run must reproduce bit for bit.
func simulated(name string) bool {
	switch name {
	case "host_ops_per_s", "setup_s", "peak_rss_mb":
		return false
	}
	return !strings.HasPrefix(name, "host.")
}

// hostGroups are the simulator components host CPU time is charged to.
var hostGroups = []string{"hw", "sim", "runtime", "mk", "core", "hv", "storage", "other"}

// hostGroup maps a Go package path to its host group.
func hostGroup(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "skybridge/internal/"):
		switch name := strings.TrimPrefix(pkg, "skybridge/internal/"); name {
		case "hw", "sim", "mk", "core", "hv":
			return name
		case "db", "fs", "blockdev":
			return "storage"
		}
	}
	return "other"
}

// profileShares groups a CPU profile's flat samples by host group, using
// the toolchain's pprof. Shares sum to 1.
func profileShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", profile)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(profile))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	shares := map[string]float64{}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) > 0 && fields[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(fields) < 6 {
			continue
		}
		flat, err := parseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		fn := strings.Join(fields[5:], " ")
		shares[hostGroup(funcPackage(fn))] += flat
		total += flat
	}
	if total == 0 {
		return nil, fmt.Errorf("CPU profile %s has no samples", profile)
	}
	for g := range shares {
		shares[g] /= total
	}
	return shares, nil
}

// funcPackage returns the package path of a pprof function name such as
// "skybridge/internal/hw.(*CPU).accessData".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseDuration reads pprof's flat column ("1.25s", "30ms", "0").
func parseDuration(s string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"ms", 1e-3}, {"us", 1e-6}, {"µs", 1e-6}, {"ns", 1e-9}, {"s", 1}, {"min", 60}, {"h", 3600}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			return f * u.scale, err
		}
	}
	return strconv.ParseFloat(s, 64)
}
