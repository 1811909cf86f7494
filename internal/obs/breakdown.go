package obs

// Per-call phase attribution: each completed IPC call is summarized as a
// CallRecord whose cycles are decomposed into a fixed taxonomy of phases.
// The decomposition is an exact partition of [Start, End): instrumentation
// sites construct records from a monotone chain of phase boundaries, so
// the phase cycles always sum to the end-to-end latency (asserted by
// tests in internal/core). Records feed two sinks, both bounded and
// allocation-light so always-on observation cannot perturb a run:
//
//   - Breakdown: per-phase histograms answering "where do the cycles of a
//     p99 call go" (exported as the breakdown section of bench records);
//   - FlightRecorder (flight.go): a ring of recent records dumped when a
//     call exceeds a quantile-tracked latency threshold.

// CallKind classifies the IPC mechanism a record came from.
type CallKind uint8

// Call kinds.
const (
	CallSync  CallKind = iota // one DirectCall crossing
	CallBatch                 // one request inside a DirectCallBatch
	CallAsync                 // one submission through an AsyncRing
)

// String returns the bench-facing kind label.
func (k CallKind) String() string {
	switch k {
	case CallSync:
		return "sync"
	case CallBatch:
		return "batch"
	case CallAsync:
		return "async"
	}
	return "unknown"
}

// CallPhase indexes one slice of a call's cycle budget.
type CallPhase int

// The phase taxonomy. Every call's [Start, End) interval is partitioned
// into exactly these phases (unused phases are zero for a given kind):
//
//	PhaseCrossing   trampoline + VMFUNC world switches (both directions),
//	                argument decode, and key checks — the paper's Table 2
//	                costs;
//	PhaseRingWait   cycles a request waited in a submission ring or batch
//	                convoy before the server picked it up;
//	PhaseService    cycles the server spent executing the handler;
//	PhaseWakeup     completion-signal delivery: doorbell/IPI latency from
//	                the server publishing the result to the client
//	                observing it;
//	PhaseClientSpin client cycles burned spinning/adaptive-waiting for the
//	                completion;
//	PhaseReapDelay  cycles a finished completion sat in the CQ before the
//	                client reaped it (batch: before the batch returned).
const (
	PhaseCrossing CallPhase = iota
	PhaseRingWait
	PhaseService
	PhaseWakeup
	PhaseClientSpin
	PhaseReapDelay
	NumCallPhases
)

// phaseNames are the JSON/report keys, indexed by CallPhase.
var phaseNames = [NumCallPhases]string{
	"crossing",
	"ring_wait",
	"service",
	"wakeup_delivery",
	"client_spin",
	"reap_delay",
}

// String returns the phase's report key.
func (p CallPhase) String() string {
	if p < 0 || p >= NumCallPhases {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseNames returns the report keys in phase order.
func PhaseNames() []string {
	names := make([]string, NumCallPhases)
	copy(names[:], phaseNames[:])
	return names
}

// CallRecord is the attribution summary of one completed call. Flow is
// the deterministic flow ID linking the record to the trace's causal
// chain; Seq is the per-kind call ordinal; Server identifies the callee.
// Phases partitions [Start, End) exactly; Wake carries the mechanism-
// specific wake kind (mk.WakeKind) for async calls, 0 otherwise.
type CallRecord struct {
	Flow   uint64                `json:"flow"`
	Kind   CallKind              `json:"kind"`
	Seq    uint64                `json:"seq"`
	Server int                   `json:"server"`
	Start  uint64                `json:"start"`
	End    uint64                `json:"end"`
	Phases [NumCallPhases]uint64 `json:"phases"`
	Wake   uint8                 `json:"wake"`
}

// E2E returns the record's end-to-end latency in cycles.
func (r *CallRecord) E2E() uint64 { return r.End - r.Start }

// Breakdown accumulates per-phase and end-to-end latency distributions
// across calls. The zero value is ready to use; a nil *Breakdown discards
// observations.
type Breakdown struct {
	e2e    Histogram
	phases [NumCallPhases]Histogram
}

// NewBreakdown creates an empty breakdown.
func NewBreakdown() *Breakdown { return &Breakdown{} }

// Observe folds one call record in.
func (b *Breakdown) Observe(r *CallRecord) {
	if b == nil {
		return
	}
	b.e2e.Observe(r.E2E())
	for p := CallPhase(0); p < NumCallPhases; p++ {
		b.phases[p].Observe(r.Phases[p])
	}
}

// Calls returns the number of observed calls.
func (b *Breakdown) Calls() uint64 {
	if b == nil {
		return 0
	}
	return b.e2e.Count()
}

// E2E returns the end-to-end latency histogram.
func (b *Breakdown) E2E() *Histogram { return &b.e2e }

// Phase returns the histogram for one phase.
func (b *Breakdown) Phase(p CallPhase) *Histogram { return &b.phases[p] }

// Merge folds other into b. Histogram merges are exact, so per-worker
// breakdowns merged in declaration order are bit-identical to a serial
// run.
func (b *Breakdown) Merge(other *Breakdown) {
	if b == nil || other == nil {
		return
	}
	b.e2e.Merge(&other.e2e)
	for p := CallPhase(0); p < NumCallPhases; p++ {
		b.phases[p].Merge(&other.phases[p])
	}
}

// Reset empties the breakdown.
func (b *Breakdown) Reset() {
	if b == nil {
		return
	}
	*b = Breakdown{}
}

// BreakdownSummary is the JSON digest: an end-to-end SLO summary plus one
// per phase (map keys serialize sorted, so output is deterministic).
// Phases with zero observed cycles everywhere are omitted to keep the
// bench records readable (sync calls never ring-wait, for example).
type BreakdownSummary struct {
	Calls  uint64                `json:"calls"`
	E2E    SLOSummary            `json:"e2e"`
	Phases map[string]SLOSummary `json:"phases"`
}

// Summary digests the breakdown.
func (b *Breakdown) Summary() BreakdownSummary {
	s := BreakdownSummary{
		Calls:  b.Calls(),
		E2E:    b.e2e.SummarySLO(),
		Phases: make(map[string]SLOSummary, int(NumCallPhases)),
	}
	for p := CallPhase(0); p < NumCallPhases; p++ {
		if b.phases[p].Sum() == 0 && b.phases[p].Max() == 0 {
			continue
		}
		s.Phases[p.String()] = b.phases[p].SummarySLO()
	}
	return s
}

// CallObserver is the per-world sink instrumentation sites publish call
// records to: a breakdown and (optionally) a flight recorder. A nil
// observer, or nil components, cost one pointer test per call.
type CallObserver struct {
	Breakdown *Breakdown
	Flight    *FlightRecorder
	// Tap, when non-nil, receives every record after the sinks; tests
	// use it to assert per-record invariants. The record pointer is valid
	// only during the call: publishers reuse one record for every call,
	// so a tap that keeps a record must copy it.
	Tap func(*CallRecord)
}

// Observe publishes one completed call record.
func (o *CallObserver) Observe(r *CallRecord) {
	if o == nil {
		return
	}
	// Flight first: its threshold must be computed from calls *before*
	// this one, so a record cannot raise the bar it is judged against.
	o.Flight.Observe(r)
	o.Breakdown.Observe(r)
	if o.Tap != nil {
		o.Tap(r)
	}
}

// Reset clears both sinks (called at measurement-window boundaries).
func (o *CallObserver) Reset() {
	if o == nil {
		return
	}
	o.Breakdown.Reset()
	o.Flight.Reset()
}
