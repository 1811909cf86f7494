package obs

// FlightRecorder keeps a bounded ring of recent CallRecords and, when a
// call's end-to-end latency exceeds a quantile-tracked threshold, freezes
// the ring into a FlightDump: the causal context (what the system was
// doing just before) plus the trigger record itself. It is always-on and
// bounded — a fixed ring, a histogram for the threshold, and a capped
// number of dumps — so tail outliers in long benches are diagnosable
// post-hoc without unbounded trace buffers.
//
// Policy: the threshold is Quantile(cfg.Quantile) over all calls observed
// *before* the candidate (so an outlier cannot raise its own bar), and no
// dump fires until MinCalls observations have seeded the distribution.
// After MaxDumps dumps, further triggers are counted in Suppressed rather
// than recorded, bounding memory no matter how pathological the tail.
//
// The threshold is kept incrementally rather than recomputed per call: the
// recorder tracks the histogram bucket holding rank max(1, ceil(q*n)) and
// the count of observations in the buckets below it. Each observation
// moves that bucket only as far as the new value and the new rank require
// (usually not at all), and its lower bound is exactly what
// Histogram.Quantile(q) returns over the same observations.

// FlightConfig parameterizes a FlightRecorder. Zero fields take the
// defaults noted on each field.
type FlightConfig struct {
	// Ring is the number of recent records retained (default 256).
	Ring int
	// Quantile is the latency quantile that sets the dump threshold
	// (default 0.999).
	Quantile float64
	// MinCalls is the number of observations required before any dump
	// can fire (default 128).
	MinCalls uint64
	// MaxDumps caps retained dumps (default 4).
	MaxDumps int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Ring <= 0 {
		c.Ring = 256
	}
	if c.Quantile <= 0 || c.Quantile >= 1 {
		c.Quantile = 0.999
	}
	if c.MinCalls == 0 {
		c.MinCalls = 128
	}
	if c.MaxDumps <= 0 {
		c.MaxDumps = 4
	}
	return c
}

// FlightDump is one frozen outlier: the trigger record, the threshold it
// exceeded, and the chain of records that preceded it (oldest first).
type FlightDump struct {
	Trigger   CallRecord   `json:"trigger"`
	Threshold uint64       `json:"threshold"`
	Chain     []CallRecord `json:"chain"`
}

// FlightRecorder implements the policy above. A nil recorder discards
// observations.
type FlightRecorder struct {
	cfg  FlightConfig
	ring []CallRecord
	next int
	full bool

	hist Histogram
	// thrIdx is the bucket of hist holding the threshold rank and
	// thrBelow the number of observations in the buckets below it.
	thrIdx     int
	thrBelow   uint64
	dumps      []FlightDump
	suppressed uint64
}

// NewFlightRecorder creates a recorder with the given (defaulted) config.
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	cfg = cfg.withDefaults()
	return &FlightRecorder{cfg: cfg, ring: make([]CallRecord, cfg.Ring)}
}

// Observe records one call, dumping first if it breaches the threshold
// established by the calls before it.
func (f *FlightRecorder) Observe(r *CallRecord) {
	if f == nil {
		return
	}
	e2e := r.E2E()
	if f.hist.Count() >= f.cfg.MinCalls {
		if thr := f.threshold(); e2e > thr {
			if len(f.dumps) < f.cfg.MaxDumps {
				f.dumps = append(f.dumps, FlightDump{
					Trigger:   *r,
					Threshold: thr,
					Chain:     f.chain(),
				})
			} else {
				f.suppressed++
			}
		}
	}
	f.observe(e2e)
	f.ring[f.next] = *r
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
}

// threshold returns hist.Quantile(cfg.Quantile) from the incremental state.
func (f *FlightRecorder) threshold() uint64 { return bucketLower(f.thrIdx) }

// observe adds v to the histogram and moves the threshold bucket to the
// one holding the new rank: down when v landed below it and the rank did
// not grow past it, up while the rank lies beyond it.
func (f *FlightRecorder) observe(v uint64) {
	f.hist.Observe(v)
	if bucketIndex(v) < f.thrIdx {
		f.thrBelow++
	}
	rank := quantileRank(f.cfg.Quantile, f.hist.count)
	for f.thrBelow >= rank {
		f.thrIdx--
		f.thrBelow -= f.hist.buckets[f.thrIdx]
	}
	for f.thrBelow+f.hist.buckets[f.thrIdx] < rank {
		f.thrBelow += f.hist.buckets[f.thrIdx]
		f.thrIdx++
	}
}

// chain copies the ring contents in chronological (insertion) order.
func (f *FlightRecorder) chain() []CallRecord {
	var out []CallRecord
	if f.full {
		out = make([]CallRecord, 0, len(f.ring))
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring[:f.next]...)
	}
	return out
}

// Dumps returns the retained dumps in trigger order.
func (f *FlightRecorder) Dumps() []FlightDump {
	if f == nil {
		return nil
	}
	return f.dumps
}

// Suppressed returns the number of triggers discarded after MaxDumps.
func (f *FlightRecorder) Suppressed() uint64 {
	if f == nil {
		return 0
	}
	return f.suppressed
}

// Calls returns the number of observed calls.
func (f *FlightRecorder) Calls() uint64 {
	if f == nil {
		return 0
	}
	return f.hist.Count()
}

// Reset clears the recorder (ring, threshold state, and dumps).
func (f *FlightRecorder) Reset() {
	if f == nil {
		return
	}
	for i := range f.ring {
		f.ring[i] = CallRecord{}
	}
	f.next, f.full = 0, false
	f.hist.Reset()
	f.thrIdx, f.thrBelow = 0, 0
	f.dumps = nil
	f.suppressed = 0
}
