package main

import (
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// Host-side measurement. The reference box is a 2-vCPU guest on a shared
// host whose speed drifts by up to 2x within one run as neighbours come
// and go: ten runs' raw op rates spread by 0.17 to 0.26 (interquartile
// range over median). The benchmark therefore times a fixed calibration
// loop next to what it measures and scales host times to the reference
// box's speed, which halves that spread; the raw values print as well.

const (
	// segmentEvery is the length of one host sampling segment of the
	// measurement window. Host rate and peak RSS are medians over
	// segments, so one burst of host noise or one late GC cycle moves a
	// segment, not the run.
	segmentEvery = 250 * time.Millisecond
	// checkEvery is how many finished ops pass between clock reads.
	checkEvery = 64
	// calibRef is calibrate's median duration on the reference box.
	calibRef = 4 * time.Millisecond
)

// calibState is the calibration loop's working set: a random cycle
// through a 2 MiB table (dependent loads that miss the L2, like the cache
// and TLB models' lookups) and a 4096-key map (the runtime map code the
// simulator's frame and context tables run).
type calibState struct {
	next []uint32
	m    map[uint64]uint64
}

var calib = sync.OnceValue(func() *calibState {
	const n = 1 << 19
	c := &calibState{next: make([]uint32, n), m: make(map[uint64]uint64, 4096)}
	// Sattolo's shuffle of the identity: one cycle through every entry.
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	rng := rand.New(rand.NewSource(1))
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for k := uint64(0); k < 4096; k++ {
		c.m[k] = k
	}
	return c
})

// calibSink keeps the calibration loop's result live.
var calibSink uint64

// calibrate runs the fixed calibration loop and returns how long it took.
// It allocates nothing and must not run concurrently with itself (the
// simulator runs one thread at a time, and so does the benchmark).
func calibrate() time.Duration {
	c := calib()
	t0 := time.Now()
	var x uint32
	for i := 0; i < 40_000; i++ {
		x = c.next[x]
	}
	h := uint64(x) | 1
	for i := 0; i < 20_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		c.m[h&4095] += h
	}
	calibSink += h
	return time.Since(t0)
}

// hostWindow is what the host side of a measurement window measured.
type hostWindow struct {
	wall   time.Duration
	gcFrac float64 // the Go GC's share of process CPU time
	// Per full segment: ops finished per second as measured (raw) and
	// scaled to the reference box's speed (rates), the calibration loop's
	// time, and the peak RSS in MB.
	raw, rates []float64
	calibs     []time.Duration
	peaks      []float64
}

// pacer measures a window's host side inline: finished ops call opDone,
// which every checkEvery ops looks at the clock and closes a segment once
// segmentEvery has passed. The calibration loop runs on the simulating
// thread between segments, outside their timing.
type pacer struct {
	win      hostWindow
	t0, last time.Time
	done     int
	lastDone int
	gc0      [2]float64
}

func startPacer() *pacer {
	resetPeakRSS()
	now := time.Now()
	return &pacer{t0: now, last: now, gc0: readGC()}
}

func (p *pacer) opDone() {
	if p == nil {
		return
	}
	p.done++
	if p.done%checkEvery != 0 {
		return
	}
	now := time.Now()
	if now.Sub(p.last) < segmentEvery {
		return
	}
	raw := float64(p.done-p.lastDone) / now.Sub(p.last).Seconds()
	c := calibrate()
	p.win.raw = append(p.win.raw, raw)
	p.win.rates = append(p.win.rates, raw*float64(c)/float64(calibRef))
	p.win.calibs = append(p.win.calibs, c)
	if mb, err := peakRSSMB(); err == nil {
		p.win.peaks = append(p.win.peaks, mb)
	}
	resetPeakRSS()
	p.last, p.lastDone = time.Now(), p.done
}

// finish closes the window and returns its host measurements.
func (p *pacer) finish() hostWindow {
	p.win.wall = time.Since(p.t0)
	gc1 := readGC()
	if total := gc1[1] - p.gc0[1]; total > 0 {
		p.win.gcFrac = (gc1[0] - p.gc0[0]) / total
	}
	return p.win
}

// readGC returns the GC's and the whole process's CPU seconds so far, as
// the Go runtime estimates them.
func readGC() [2]float64 {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return [2]float64{samples[0].Value.Float64(), samples[1].Value.Float64()}
}

// median returns the middle value of xs (the mean of the middle two for
// an even count, 0 for none).
func median[T time.Duration | float64](xs []T) T {
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
