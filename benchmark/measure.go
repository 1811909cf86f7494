package main

import (
	"math"
	"sort"
	"time"

	"skybridge/internal/obs"
)

// denseMax bounds the values latencies counts in a flat array; larger
// values are kept one by one and sorted on demand. Direct calls and most
// ring round trips land below it, so the multi-million-call echo workload
// costs one array, not millions of slice entries.
const denseMax = 1 << 16

// latencies is an exact distribution of simulated cycle counts.
// Quantiles are nearest-rank over every observation, so the benchmark's
// percentiles carry no bucketing error.
type latencies struct {
	dense  []uint64 // dense[v] counts observations of v < denseMax
	sparse []uint64 // observations >= denseMax
	n      uint64
	sorted bool
}

func (l *latencies) add(v uint64) {
	l.n++
	if v < denseMax {
		if l.dense == nil {
			l.dense = make([]uint64, denseMax)
		}
		l.dense[v]++
		return
	}
	l.sparse = append(l.sparse, v)
	l.sorted = false
}

// quantile returns the nearest-rank q-quantile (0 when empty).
func (l *latencies) quantile(q float64) uint64 {
	if l.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(l.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for v, c := range l.dense {
		cum += c
		if cum >= rank {
			return uint64(v)
		}
	}
	if !l.sorted {
		sort.Slice(l.sparse, func(i, j int) bool { return l.sparse[i] < l.sparse[j] })
		l.sorted = true
	}
	return l.sparse[rank-cum-1]
}

// beyond returns how many observations rank above the q-quantile: the
// samples a tail percentile rests on.
func (l *latencies) beyond(q float64) uint64 {
	return l.n - uint64(math.Ceil(q*float64(l.n)))
}

// result is what one workload run measured. Simulated quantities cover
// the measurement window; host quantities are wall-clock.
type result struct {
	attempted, failed int

	// lat holds the latency of every verified op; finish adds each failed
	// op at the window length, so failures sort past every success.
	lat      *latencies
	makespan uint64
	// byKind splits the successful latencies by operation kind: the YCSB
	// read/update split, the echo workload's 0-byte calls, the open-loop
	// generator's lag.
	byKind map[string]*latencies

	// reg is the simulated machine's counter registry, reset when the
	// window opened; vmExits counts exits since then.
	reg     *obs.Registry
	vmExits uint64
	calls   *obs.CallObserver
	// layer holds workload-specific per-layer values (director, pager,
	// and file-system statistics) measured over the window.
	layer map[string]float64

	setup []time.Duration
	pace  *pacer // nil outside the measurement window
	host  hostWindow
	spans *tracer // nil when untraced
}

func newResult() *result {
	return &result{lat: &latencies{}, byKind: map[string]*latencies{}, layer: map[string]float64{}}
}

// observe records one verified op of the given kind ("" for none).
func (r *result) observe(kind string, lat uint64) {
	r.lat.add(lat)
	if kind != "" {
		r.kind(kind).add(lat)
	}
	r.pace.opDone()
}

// fail records one op that failed or returned a wrong result.
func (r *result) fail() {
	r.failed++
	r.pace.opDone()
}

// kind returns (creating if needed) the split distribution for kind.
func (r *result) kind(kind string) *latencies {
	h := r.byKind[kind]
	if h == nil {
		h = &latencies{}
		r.byKind[kind] = h
	}
	return h
}

// finish closes the window: failed ops enter the latency distribution at
// the window length.
func (r *result) finish(makespan uint64) {
	r.makespan = makespan
	for i := 0; i < r.failed; i++ {
		r.lat.add(makespan)
	}
}
