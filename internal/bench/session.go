package bench

import (
	"io"

	"skybridge/internal/obs"
)

// Record is one machine-readable experiment result: what ran, under which
// configuration, and what it measured. Every experiment in a Session emits
// at least one Record, so a driver (CI, a plotting script) can consume the
// whole evaluation without scraping the rendered tables.
type Record struct {
	Experiment string `json:"experiment"`
	// Config identifies the cell (flavor, transport, payload size, ...).
	Config map[string]string `json:"config,omitempty"`
	// CyclesPerOp is the headline per-operation cost in simulated cycles,
	// when the experiment has one.
	CyclesPerOp float64 `json:"cycles_per_op,omitempty"`
	// Values carries the experiment's other scalars (throughputs, miss
	// counts, paper reference values).
	Values map[string]float64 `json:"values,omitempty"`
	// Latency is the per-op latency distribution of the measurement
	// window, when the experiment observes individual operations.
	Latency *obs.Summary `json:"latency,omitempty"`
	// Breakdown is the per-call phase attribution of the measurement
	// window (where the cycles of one call went), when the experiment's
	// world publishes call records.
	Breakdown *obs.BreakdownSummary `json:"breakdown,omitempty"`
}

// Session runs experiments with shared observability state: an optional
// tracer (each world becomes one trace process) and a registry of per-op
// latency histograms, plus the accumulated Records. Every paper unit is a
// Session method, the one entry point the catalog calls; a caller that
// wants a unit alone runs it on NewSession(nil).
type Session struct {
	// Trace, when non-nil, receives one trace process per world built by
	// the session's experiments.
	Trace *obs.Tracer
	// Reg holds the session-level per-op latency histograms, named
	// "<experiment>/<cell>".
	Reg *obs.Registry

	recs    []Record
	calls   []*CallSite
	callIdx map[string]int
	// memo is shared by every session of one tree (newSub).
	memo *cellMemo
}

// CallSite is one world's per-call attribution sink: a phase breakdown
// plus an always-on flight recorder, labelled like the world that feeds
// it. Sites are created by world() in experiment order, so the session's
// site list is deterministic for any worker count.
type CallSite struct {
	Label string
	Obs   *obs.CallObserver
}

// NewSession creates a session; trace may be nil (metrics only).
func NewSession(trace *obs.Tracer) *Session {
	return &Session{
		Trace: trace, Reg: obs.NewRegistry(), callIdx: map[string]int{},
		memo: &cellMemo{cells: map[ycsbCell]*memoCell{}},
	}
}

// world builds a World, attaching it to the session tracer under label and
// publishing its SkyBridge call records to the session's site for label.
func (s *Session) world(label string, cfg WorldConfig) *World {
	if s.Trace != nil {
		cfg.Trace = s.Trace
		cfg.Label = label
	}
	if cfg.SkyBridge {
		cfg.Calls = s.callSite(label).Obs
	}
	return MustWorld(cfg)
}

// callSite returns (creating if needed) the session call site for label.
func (s *Session) callSite(label string) *CallSite {
	if i, ok := s.callIdx[label]; ok {
		return s.calls[i]
	}
	cs := &CallSite{Label: label, Obs: &obs.CallObserver{
		Breakdown: obs.NewBreakdown(),
		Flight:    obs.NewFlightRecorder(obs.FlightConfig{}),
	}}
	s.callIdx[label] = len(s.calls)
	s.calls = append(s.calls, cs)
	return cs
}

// breakdownOf digests a site's phase breakdown (nil if it saw no calls).
func (s *Session) breakdownOf(label string) *obs.BreakdownSummary {
	i, ok := s.callIdx[label]
	if !ok || s.calls[i].Obs.Breakdown.Calls() == 0 {
		return nil
	}
	sum := s.calls[i].Obs.Breakdown.Summary()
	return &sum
}

// hist returns the session histogram for one experiment cell.
func (s *Session) hist(name string) *obs.Histogram { return s.Reg.Histogram(name) }

// latencyOf digests a session histogram (nil if it saw no observations).
func (s *Session) latencyOf(name string) *obs.Summary {
	h := s.Reg.Histogram(name)
	if h.Count() == 0 {
		return nil
	}
	sum := h.Summary()
	return &sum
}

// TotalDropped surfaces the tracer's dropped-event count (0 when the
// session is untraced). Nonzero means trace spans and flow chains were
// discarded and the trace is not trustworthy.
func (s *Session) TotalDropped() uint64 {
	if s.Trace == nil {
		return 0
	}
	return s.Trace.TotalDropped()
}

// record appends one result record.
func (s *Session) record(r Record) { s.recs = append(s.recs, r) }

// Records returns the accumulated records in emission order.
func (s *Session) Records() []Record { return s.recs }

// MetricsOutput is the JSON document WriteMetrics emits.
type MetricsOutput struct {
	Records []Record `json:"records"`
	// Histograms are the session's per-op latency distributions.
	Histograms map[string]obs.Summary `json:"histograms,omitempty"`
}

// WriteMetrics serializes every record plus the latency histograms.
// Deterministic for identical runs: records keep emission order and map
// keys serialize sorted.
func (s *Session) WriteMetrics(w io.Writer) error {
	out := MetricsOutput{Records: s.recs}
	if len(s.recs) == 0 {
		out.Records = []Record{}
	}
	snap := s.Reg.Snapshot()
	if len(snap.Histograms) > 0 {
		out.Histograms = snap.Histograms
	}
	return WriteJSON(w, out)
}
