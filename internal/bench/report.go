package bench

import (
	"fmt"
	"io"
	"strings"

	"skybridge/internal/obs"
)

// The -report document: every call site's phase breakdown digested into
// SLO percentiles (p50/p90/p99/p99.9), plus the flight-recorder dumps
// that explain its tail. The report is byte-deterministic — entries keep
// site creation order (experiment declaration order under RunAll, any
// worker count), map keys serialize sorted, and the underlying histograms
// merge exactly.

// ReportEntry is one call site's digest.
type ReportEntry struct {
	Label string         `json:"label"`
	Calls uint64         `json:"calls"`
	E2E   obs.SLOSummary `json:"e2e"`
	// Phases maps phase name (obs.PhaseNames) to its distribution;
	// phases a site never exercises are absent.
	Phases map[string]obs.SLOSummary `json:"phases"`
	// Dumps are the site's flight-recorder outlier dumps (full causal
	// chains); SuppressedDumps counts triggers past the dump cap.
	Dumps           []obs.FlightDump `json:"dumps,omitempty"`
	SuppressedDumps uint64           `json:"suppressed_dumps,omitempty"`
}

// Report is the whole -report document.
type Report struct {
	// DroppedSpans is the tracer's total dropped-event count; nonzero
	// means the trace (and any flow chain in it) is incomplete.
	DroppedSpans uint64        `json:"dropped_spans"`
	Entries      []ReportEntry `json:"entries"`
}

// BuildReport digests the session's call sites in creation order; sites
// that observed no calls are skipped.
func (s *Session) BuildReport() *Report {
	rep := &Report{Entries: []ReportEntry{}}
	if s.Trace != nil {
		rep.DroppedSpans = s.Trace.TotalDropped()
	}
	for _, cs := range s.calls {
		sum := cs.Obs.Breakdown.Summary()
		if sum.Calls == 0 {
			continue
		}
		rep.Entries = append(rep.Entries, ReportEntry{
			Label:           cs.Label,
			Calls:           sum.Calls,
			E2E:             sum.E2E,
			Phases:          sum.Phases,
			Dumps:           cs.Obs.Flight.Dumps(),
			SuppressedDumps: cs.Obs.Flight.Suppressed(),
		})
	}
	return rep
}

// Render formats the human table: one block per call site, phases in
// taxonomy order, cycles throughout. The share column is the phase's
// fraction of total observed cycles (means over equal counts).
func (r *Report) Render() string {
	var b strings.Builder
	if r.DroppedSpans > 0 {
		fmt.Fprintf(&b, "WARNING: tracer dropped %d events; trace and flow chains are incomplete (raise the event cap)\n\n", r.DroppedSpans)
	}
	b.WriteString("Per-call phase breakdown (simulated cycles)\n")
	if len(r.Entries) == 0 {
		b.WriteString("no call records observed (sites: scaling, async experiments)\n")
		return b.String()
	}
	for i := range r.Entries {
		e := &r.Entries[i]
		fmt.Fprintf(&b, "\n%s  (%d calls)\n", e.Label, e.Calls)
		fmt.Fprintf(&b, "  %-16s %9s %8s %8s %8s %8s %8s %7s\n",
			"phase", "mean", "p50", "p90", "p99", "p99.9", "max", "share")
		row := func(name string, s obs.SLOSummary, share float64) {
			fmt.Fprintf(&b, "  %-16s %9.1f %8d %8d %8d %8d %8d %6.1f%%\n",
				name, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max, share)
		}
		row("e2e", e.E2E, 100)
		for _, name := range obs.PhaseNames() {
			ps, ok := e.Phases[name]
			if !ok {
				continue
			}
			share := 0.0
			if e.E2E.Mean > 0 {
				share = 100 * ps.Mean / e.E2E.Mean
			}
			row(name, ps, share)
		}
		if n := len(e.Dumps); n > 0 || e.SuppressedDumps > 0 {
			slowest := uint64(0)
			for _, d := range e.Dumps {
				if l := d.Trigger.End - d.Trigger.Start; l > slowest {
					slowest = l
				}
			}
			fmt.Fprintf(&b, "  flight: %d dump(s), slowest trigger %d cycles, %d suppressed\n",
				n, slowest, e.SuppressedDumps)
		}
	}
	return b.String()
}

// WriteJSON serializes the report (deterministic: ordered entries,
// sorted map keys).
func (r *Report) WriteJSON(w io.Writer) error { return WriteJSON(w, r) }
