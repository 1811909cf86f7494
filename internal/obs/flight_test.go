package obs

import (
	"math/rand"
	"reflect"
	"testing"
)

// refFlight is the flight-recorder policy with the threshold recomputed by
// Histogram.Quantile before every call: the reference the incremental
// threshold must reproduce exactly.
type refFlight struct {
	cfg        FlightConfig
	hist       Histogram
	recs       []CallRecord // every record since the last reset
	dumps      []FlightDump
	suppressed uint64
}

func (f *refFlight) observe(r *CallRecord) {
	e2e := r.E2E()
	if f.hist.Count() >= f.cfg.MinCalls {
		if thr := f.hist.Quantile(f.cfg.Quantile); e2e > thr {
			if len(f.dumps) < f.cfg.MaxDumps {
				chain := f.recs[max(0, len(f.recs)-f.cfg.Ring):]
				f.dumps = append(f.dumps, FlightDump{
					Trigger:   *r,
					Threshold: thr,
					Chain:     append([]CallRecord(nil), chain...),
				})
			} else {
				f.suppressed++
			}
		}
	}
	f.hist.Observe(e2e)
	f.recs = append(f.recs, *r)
}

func (f *refFlight) reset() {
	f.hist.Reset()
	f.recs, f.dumps, f.suppressed = nil, nil, 0
}

// flightStreams are seeded latency streams that move the threshold bucket
// in every way: exact unit buckets, two far-apart modes, a heavy tail,
// monotone ramps in both directions, and a distribution change across a
// Reset (the reset case resets at i == n/2).
var flightStreams = []struct {
	name string
	gen  func(rng *rand.Rand, i, n int) uint64
}{
	{"small-exact", func(rng *rand.Rand, i, n int) uint64 { return uint64(rng.Intn(20)) }},
	{"bimodal", func(rng *rand.Rand, i, n int) uint64 {
		if rng.Intn(10) == 0 {
			return 20_000 + uint64(rng.Intn(5_000))
		}
		return 380 + uint64(rng.Intn(40))
	}},
	{"exp-tail", func(rng *rand.Rand, i, n int) uint64 {
		return 300 + uint64(rng.ExpFloat64()*rng.ExpFloat64()*2_000)
	}},
	{"rising", func(rng *rand.Rand, i, n int) uint64 { return uint64(i)*13 + uint64(rng.Intn(8)) }},
	{"falling", func(rng *rand.Rand, i, n int) uint64 { return uint64(n-i)*13 + uint64(rng.Intn(8)) }},
	{"reset", func(rng *rand.Rand, i, n int) uint64 {
		if i < n/2 {
			return 10_000 + uint64(rng.Intn(50_000))
		}
		return uint64(rng.Intn(600))
	}},
}

// TestFlightThresholdMatchesQuantile: before every Observe, the
// incrementally tracked threshold equals Histogram.Quantile(q) over the
// calls seen so far, and the dumps and suppression count match a recorder
// that recomputes the quantile per call.
func TestFlightThresholdMatchesQuantile(t *testing.T) {
	const seeds, n = 12, 2500
	for _, s := range flightStreams {
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			for seed := int64(1); seed <= seeds; seed++ {
				cfg := FlightConfig{Ring: 16, Quantile: q, MinCalls: 32, MaxDumps: 3}
				f := NewFlightRecorder(cfg)
				ref := &refFlight{cfg: cfg.withDefaults()}
				rng := rand.New(rand.NewSource(seed))
				for i := 0; i < n; i++ {
					if s.name == "reset" && i == n/2 {
						if !reflect.DeepEqual(f.Dumps(), ref.dumps) || f.Suppressed() != ref.suppressed {
							t.Fatalf("%s q=%v seed %d: dumps differ from the reference before Reset", s.name, q, seed)
						}
						f.Reset()
						ref.reset()
					}
					if got, want := f.threshold(), f.hist.Quantile(q); got != want {
						t.Fatalf("%s q=%v seed %d call %d: threshold %d, Quantile %d",
							s.name, q, seed, i, got, want)
					}
					start := uint64(i) * 1_000_000
					r := CallRecord{Kind: CallSync, Seq: uint64(i), Start: start, End: start + s.gen(rng, i, n)}
					r.Phases[PhaseService] = r.E2E()
					f.Observe(&r)
					ref.observe(&r)
				}
				if !reflect.DeepEqual(f.Dumps(), ref.dumps) {
					t.Fatalf("%s q=%v seed %d: dumps differ from the reference\n got %+v\nwant %+v",
						s.name, q, seed, f.Dumps(), ref.dumps)
				}
				if f.Suppressed() != ref.suppressed {
					t.Fatalf("%s q=%v seed %d: suppressed %d, reference %d",
						s.name, q, seed, f.Suppressed(), ref.suppressed)
				}
			}
		}
	}
}

// TestCallObserverObserveAllocs: publishing a record that does not dump
// allocates nothing.
func TestCallObserverObserveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	o := &CallObserver{Breakdown: NewBreakdown(), Flight: NewFlightRecorder(FlightConfig{})}
	r := rec(0, 300, 0, 100)
	next := func() {
		r.Start += 1_000
		r.End += 1_000
		o.Observe(&r)
	}
	for i := 0; i < 256; i++ {
		next()
	}
	if allocs := testing.AllocsPerRun(1000, next); allocs != 0 {
		t.Errorf("CallObserver.Observe: %v allocations per record, want 0", allocs)
	}
	if n := len(o.Flight.Dumps()); n != 0 {
		t.Fatalf("%d dumps: the guard must measure the no-dump path", n)
	}
}
