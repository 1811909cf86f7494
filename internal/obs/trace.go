package obs

// Event phases (a subset of the Chrome trace-event phases).
const (
	// PhaseSpan is a complete event: a named interval [Ts, Ts+Dur).
	PhaseSpan byte = 'X'
	// PhaseInstant is a point event at Ts.
	PhaseInstant byte = 'i'
	// PhaseFlowStart opens a flow (causal arrow) identified by Event.ID.
	PhaseFlowStart byte = 's'
	// PhaseFlowStep continues a flow on another track.
	PhaseFlowStep byte = 't'
	// PhaseFlowEnd terminates a flow.
	PhaseFlowEnd byte = 'f'
)

// Event is one recorded trace event. Ts and Dur are simulated cycles. ID
// is only meaningful for flow events, where it names the causal chain the
// event belongs to; flow IDs are derived from deterministic per-kind call
// counters, never from allocation order of runtime state.
type Event struct {
	Name string
	Cat  string
	Ph   byte
	Ts   uint64
	Dur  uint64
	ID   uint64
	Args []Arg
}

// Flow-ID namespaces: the top nibble of a flow ID says which mechanism
// minted it, and the low bits come from that mechanism's deterministic
// counter (call ordinal, ring seq, wake seq). IDs are therefore stable
// across runs and across -j parallelism, never derived from host state.
const (
	FlowSync  uint64 = 1 << 60 // | DirectCall ordinal
	FlowBatch uint64 = 2 << 60 // | batch ordinal
	FlowAsync uint64 = 3 << 60 // | ring ID << 32 | submission seq
	FlowWake  uint64 = 4 << 60 // | kernel wake seq
)

// SpanID identifies an open span inside one CoreTrace. The zero value of a
// dropped or disabled span is NoSpan; End(NoSpan, ...) is a no-op, so
// instrumentation sites never need to branch on buffer state.
type SpanID int

// NoSpan is the SpanID returned when a span could not be recorded (buffer
// full or tracing disabled).
const NoSpan SpanID = -1

// DefaultEventCap is the per-core event-buffer capacity used when a Tracer
// does not override it.
const DefaultEventCap = 1 << 18

// CoreTrace is the per-CPU event buffer: one track (pid, tid) in the
// exported trace. It is bounded: once capacity is reached new events are
// dropped and counted rather than overwriting older ones, which keeps open
// SpanIDs stable and keeps the drop behaviour deterministic.
type CoreTrace struct {
	pid, tid int
	events   []Event
	capacity int

	// Dropped counts events discarded because the buffer was full.
	Dropped uint64
}

// Instant records a point event at cycle ts.
func (ct *CoreTrace) Instant(ts uint64, name, cat string, args ...Arg) {
	if ct == nil {
		return
	}
	ct.append(Event{Name: name, Cat: cat, Ph: PhaseInstant, Ts: ts, Args: args})
}

// Complete records a span whose duration is already known (e.g. a fixed-
// cost instruction such as VMFUNC): [ts, ts+dur).
func (ct *CoreTrace) Complete(ts, dur uint64, name, cat string, args ...Arg) {
	if ct == nil {
		return
	}
	ct.append(Event{Name: name, Cat: cat, Ph: PhaseSpan, Ts: ts, Dur: dur, Args: args})
}

// Begin opens a span at cycle ts and returns its ID for End. Returns
// NoSpan when the buffer is full.
func (ct *CoreTrace) Begin(ts uint64, name, cat string) SpanID {
	if ct == nil {
		return NoSpan
	}
	if len(ct.events) >= ct.capacity {
		ct.Dropped++
		return NoSpan
	}
	ct.events = append(ct.events, Event{Name: name, Cat: cat, Ph: PhaseSpan, Ts: ts})
	return SpanID(len(ct.events) - 1)
}

// End closes a span opened by Begin at cycle ts, attaching any args. A
// NoSpan id is ignored.
func (ct *CoreTrace) End(id SpanID, ts uint64, args ...Arg) {
	if ct == nil || id == NoSpan {
		return
	}
	ev := &ct.events[id]
	if ts > ev.Ts {
		ev.Dur = ts - ev.Ts
	}
	ev.Args = append(ev.Args, args...)
}

// FlowStart opens flow id at cycle ts on this track. Flow events bind to
// the enclosing slice in Perfetto, so emit them inside (or at the same
// timestamp as) the span that does the work.
func (ct *CoreTrace) FlowStart(ts uint64, id uint64, name, cat string) {
	if ct == nil {
		return
	}
	ct.append(Event{Name: name, Cat: cat, Ph: PhaseFlowStart, Ts: ts, ID: id})
}

// FlowStep continues flow id on this track at cycle ts.
func (ct *CoreTrace) FlowStep(ts uint64, id uint64, name, cat string) {
	if ct == nil {
		return
	}
	ct.append(Event{Name: name, Cat: cat, Ph: PhaseFlowStep, Ts: ts, ID: id})
}

// FlowEnd terminates flow id on this track at cycle ts.
func (ct *CoreTrace) FlowEnd(ts uint64, id uint64, name, cat string) {
	if ct == nil {
		return
	}
	ct.append(Event{Name: name, Cat: cat, Ph: PhaseFlowEnd, Ts: ts, ID: id})
}

// Events returns the recorded events in program order.
func (ct *CoreTrace) Events() []Event { return ct.events }

// Len returns the number of recorded events.
func (ct *CoreTrace) Len() int {
	if ct == nil {
		return 0
	}
	return len(ct.events)
}

func (ct *CoreTrace) append(ev Event) {
	if len(ct.events) >= ct.capacity {
		ct.Dropped++
		return
	}
	ct.events = append(ct.events, ev)
}

// ProcTrace is one traced machine (a Chrome trace "process"): a named
// group of per-core tracks. Benchmarks that assemble several simulated
// machines in one run give each its own ProcTrace, so their events do not
// interleave on shared tracks.
type ProcTrace struct {
	pid   int
	name  string
	cores []*CoreTrace
}

// Core returns the track for core i.
func (pt *ProcTrace) Core(i int) *CoreTrace { return pt.cores[i] }

// Cores returns the number of tracks.
func (pt *ProcTrace) Cores() int { return len(pt.cores) }

// Name returns the process label.
func (pt *ProcTrace) Name() string { return pt.name }

// Tracer owns all trace state for one run: a sequence of ProcTraces, each
// with per-core bounded event buffers.
type Tracer struct {
	// EventCap is the per-core buffer capacity applied to processes created
	// after it is set (default DefaultEventCap).
	EventCap int

	procs []*ProcTrace
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// Process creates the next traced process with ncores per-core tracks.
func (t *Tracer) Process(name string, ncores int) *ProcTrace {
	capacity := t.EventCap
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	pt := &ProcTrace{pid: len(t.procs), name: name}
	for i := 0; i < ncores; i++ {
		pt.cores = append(pt.cores, &CoreTrace{pid: pt.pid, tid: i, capacity: capacity})
	}
	t.procs = append(t.procs, pt)
	return pt
}

// Processes returns the traced processes in creation order.
func (t *Tracer) Processes() []*ProcTrace { return t.procs }

// Adopt moves every process of other into t, renumbering pids to continue
// t's sequence, and leaves other empty. A runner that gives each
// experiment its own sub-tracer and adopts them in declaration order
// produces the same pid assignment — and therefore byte-identical trace
// output — as a serial run that created all processes in one tracer.
func (t *Tracer) Adopt(other *Tracer) {
	if other == nil || other == t {
		return
	}
	for _, pt := range other.procs {
		pt.pid = len(t.procs)
		for _, ct := range pt.cores {
			ct.pid = pt.pid
		}
		t.procs = append(t.procs, pt)
	}
	other.procs = nil
}

// TotalDropped returns the number of dropped events across all tracks.
func (t *Tracer) TotalDropped() uint64 {
	var n uint64
	for _, pt := range t.procs {
		for _, ct := range pt.cores {
			n += ct.Dropped
		}
	}
	return n
}
