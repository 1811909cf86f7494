package obs

import (
	"encoding/json"
	"io"
)

// Registry is a flat, named metric space: counters (owned or bound by
// pointer to an existing uint64 field) and latency histograms.
//
// Binding by pointer is what unifies the simulator's pre-existing stats
// structs (hw.CacheStats, hw.TLBStats, CPU counters, kernel and hypervisor
// counters) without putting a map lookup on the hot path: the hot code
// keeps incrementing its plain struct field, and the registry can read,
// snapshot, and reset that field by name.
type Registry struct {
	counters map[string]*uint64
	hists    map[string]*Histogram
	gauges   map[string]*uint64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*uint64),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*uint64),
	}
}

// Bind registers an externally owned counter under name. Re-binding a name
// replaces the previous binding (the last-created owner wins, which lets a
// fresh kernel on a reused machine re-register its counters).
func (r *Registry) Bind(name string, p *uint64) {
	r.counters[name] = p
}

// Counter is a registry-owned counter handle.
type Counter struct{ p *uint64 }

// Inc adds one.
func (c Counter) Inc() { *c.p++ }

// Add adds n.
func (c Counter) Add(n uint64) { *c.p += n }

// Value reads the counter.
func (c Counter) Value() uint64 { return *c.p }

// Counter returns (creating if needed) a registry-owned counter.
func (r *Registry) Counter(name string) Counter {
	if p, ok := r.counters[name]; ok {
		return Counter{p: p}
	}
	p := new(uint64)
	r.counters[name] = p
	return Counter{p: p}
}

// Value reads a counter by name (0 if absent).
func (r *Registry) Value(name string) uint64 {
	if p, ok := r.counters[name]; ok {
		return *p
	}
	return 0
}

// SumSuffix sums every counter whose name ends with suffix — e.g.
// SumSuffix(".L1I.misses") totals i-cache misses across all cores.
func (r *Registry) SumSuffix(suffix string) uint64 {
	var total uint64
	for name, p := range r.counters {
		if len(name) >= len(suffix) && name[len(name)-len(suffix):] == suffix {
			total += *p
		}
	}
	return total
}

// Gauge is a registry-owned point-in-time level — ring occupancy, queue
// depth — as opposed to a monotonically accumulating counter. Gauges and
// counters share the reset/snapshot lifecycle but live in separate
// namespaces, so a snapshot can tell "how many are in flight right now"
// apart from "how many ever happened".
type Gauge struct{ p *uint64 }

// Set stores the current level.
func (g Gauge) Set(v uint64) { *g.p = v }

// Add raises the level by n.
func (g Gauge) Add(n uint64) { *g.p += n }

// Value reads the level.
func (g Gauge) Value() uint64 { return *g.p }

// Gauge returns (creating if needed) a registry-owned gauge.
func (r *Registry) Gauge(name string) Gauge {
	if p, ok := r.gauges[name]; ok {
		return Gauge{p: p}
	}
	p := new(uint64)
	r.gauges[name] = p
	return Gauge{p: p}
}

// Histogram returns (creating if needed) the named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// MergeHistograms folds every histogram of other into the same-named
// histogram here (created if absent). Counters are not merged: bound
// counters alias per-machine stats structs, which have no cross-registry
// meaning. Histogram merging is exact (see Histogram.Merge), so a
// declaration-ordered merge of per-experiment registries reproduces a
// serial run's histograms bit-for-bit.
func (r *Registry) MergeHistograms(other *Registry) {
	for name, h := range other.hists {
		r.Histogram(name).Merge(h)
	}
}

// ResetAll zeroes every counter (owned and bound) and every histogram.
// Benchmarks call this once after warm-up so the measurement window starts
// from a clean slate across all layers at once.
func (r *Registry) ResetAll() {
	for _, p := range r.counters {
		*p = 0
	}
	for _, p := range r.gauges {
		*p = 0
	}
	for _, h := range r.hists {
		h.Reset()
	}
}

// Snapshot is a point-in-time copy of the registry, JSON-serializable with
// deterministic key order.
type Snapshot struct {
	Counters   map[string]uint64  `json:"counters"`
	Gauges     map[string]uint64  `json:"gauges,omitempty"`
	Histograms map[string]Summary `json:"histograms,omitempty"`
}

// Snapshot copies every metric value.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for name, p := range r.counters {
		s.Counters[name] = *p
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]uint64, len(r.gauges))
		for name, p := range r.gauges {
			s.Gauges[name] = *p
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]Summary, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Summary()
		}
	}
	return s
}

// WriteJSON serializes a snapshot of the registry. Deterministic for
// identical runs (json.Marshal orders map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	buf, err := json.MarshalIndent(r.Snapshot(), "", " ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	_, err = w.Write(buf)
	return err
}
