package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"
	"testing"

	"skybridge/internal/hw"
)

func newEngine(cores int) *Engine {
	return NewEngine(hw.NewMachine(hw.MachineConfig{Cores: cores, MemBytes: 1 << 24}))
}

func TestEngineRunsSingleThread(t *testing.T) {
	e := newEngine(1)
	ran := false
	e.Go("t0", e.Mach.Cores[0], func(th *Thread) {
		th.Core.Tick(100)
		ran = true
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("thread body did not run")
	}
	if e.Mach.Cores[0].Clock != 100 {
		t.Fatalf("core clock %d, want 100", e.Mach.Cores[0].Clock)
	}
}

func TestEngineParallelCoresOverlapInTime(t *testing.T) {
	e := newEngine(2)
	e.Go("a", e.Mach.Cores[0], func(th *Thread) { th.Core.Tick(1000) })
	e.Go("b", e.Mach.Cores[1], func(th *Thread) { th.Core.Tick(800) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Two cores run concurrently: neither clock includes the other's work.
	if e.Mach.Cores[0].Clock != 1000 || e.Mach.Cores[1].Clock != 800 {
		t.Fatalf("clocks %d, %d", e.Mach.Cores[0].Clock, e.Mach.Cores[1].Clock)
	}
}

func TestEngineSameCoreSerializes(t *testing.T) {
	e := newEngine(1)
	c := e.Mach.Cores[0]
	e.Go("a", c, func(th *Thread) { th.Core.Tick(500) })
	e.Go("b", c, func(th *Thread) { th.Core.Tick(300) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Clock != 800 {
		t.Fatalf("shared core clock %d, want 800", c.Clock)
	}
}

func TestEngineParkWake(t *testing.T) {
	e := newEngine(2)
	var waiter *Thread
	var got any
	waiter = e.Go("waiter", e.Mach.Cores[0], func(th *Thread) {
		got = th.Park()
	})
	e.Go("waker", e.Mach.Cores[1], func(th *Thread) {
		th.Core.Tick(250)
		e.Wake(waiter, th.Now(), "hello")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Fatalf("park returned %v", got)
	}
	// The waiter resumed no earlier than the waker's send time.
	if e.Mach.Cores[0].Clock < 250 {
		t.Fatalf("waiter resumed at %d, before wake time 250", e.Mach.Cores[0].Clock)
	}
}

func TestEngineDeadlockDetected(t *testing.T) {
	e := newEngine(1)
	e.Go("stuck", e.Mach.Cores[0], func(th *Thread) { th.Park() })
	if err := e.Run(); err == nil {
		t.Fatal("deadlock not reported")
	}
}

func TestEngineClosureEvents(t *testing.T) {
	e := newEngine(1)
	var order []int
	e.At(500, func() { order = append(order, 2) })
	e.At(100, func() { order = append(order, 1) })
	e.Go("t", e.Mach.Cores[0], func(th *Thread) {
		th.Core.Tick(10)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("closure order %v", order)
	}
}

func TestEngineStaleWakeIgnored(t *testing.T) {
	e := newEngine(1)
	var got any
	th := e.Go("t", e.Mach.Cores[0], func(th *Thread) {
		e.Wake(th, 100, "first")
		e.Wake(th, 1000, "expired timeout") // delivered after the body returns
		got = th.Park()
	})
	e.Wake(th, 1_000_000, "late") // delivered after the thread finished
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "first" {
		t.Fatalf("park returned %v, want first", got)
	}
	if c := e.Mach.Cores[0].Clock; c != 100 {
		t.Fatalf("core clock %d, want 100: a stale wake moved it", c)
	}
}

func TestEngineWakeOfRunningThreadReported(t *testing.T) {
	e := newEngine(1)
	var inner error
	e.Go("t", e.Mach.Cores[0], func(th *Thread) {
		e.Wake(th, th.Now(), nil)
		inner = e.Run() // pops this thread's own wake while it runs
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if inner == nil || !strings.Contains(inner.Error(), "wake of running thread") {
		t.Fatalf("nested Run returned %v, want a wake-of-running-thread error", inner)
	}
}

func TestEngineThreadPanicSurfacesInRun(t *testing.T) {
	e := newEngine(1)
	e.Go("boom", e.Mach.Cores[0], func(th *Thread) {
		e.Wake(th, 100, nil)
		th.Park()
		panic("boom")
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		_ = e.Run()
		return nil
	}()
	if got != "boom" {
		t.Fatalf("recovered %v from Run, want the thread's panic", got)
	}
}

func TestEngineRunRepeatedly(t *testing.T) {
	e := newEngine(2)
	e.Go("setup", e.Mach.Cores[0], func(th *Thread) { th.Core.Tick(500) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Threads created after a Run returns start at their core's current
	// time in the next Run.
	var got any
	var start uint64
	waiter := e.Go("waiter", e.Mach.Cores[0], func(th *Thread) {
		start = th.Now()
		got = th.Park()
	})
	e.Go("waker", e.Mach.Cores[1], func(th *Thread) {
		th.Core.Tick(600) // past the waiter's start at 500, so it has parked
		e.Wake(waiter, th.Now(), "again")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if start != 500 || got != "again" {
		t.Fatalf("second run: waiter started at %d with %v, want 500 and again", start, got)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("empty run: %v", err)
	}
}

func TestEngineParkFromDeepStack(t *testing.T) {
	e := newEngine(2)
	var deep func(th *Thread, depth int) any
	deep = func(th *Thread, depth int) any {
		var pad [256]byte // forces the thread's stack to grow
		pad[depth%len(pad)] = byte(depth)
		if depth == 0 {
			return th.Park()
		}
		v := deep(th, depth-1)
		if pad[depth%len(pad)] != byte(depth) {
			panic("frame corrupted across Park")
		}
		return v
	}
	var got any
	waiter := e.Go("deep", e.Mach.Cores[0], func(th *Thread) { got = deep(th, 2000) })
	e.Go("waker", e.Mach.Cores[1], func(th *Thread) {
		th.Core.Tick(10)
		th.Checkpoint()
		e.Wake(waiter, th.Now(), 7)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("park from depth 2000 returned %v, want 7", got)
	}
}

// The golden schedule hash was recorded on the engine's earlier
// goroutine-and-channel implementation. Any change to which thread runs
// when, at what clock, with which wake value, changes it.
const (
	goldenScheduleHash    = 0xfc404a53b4e06c93
	goldenScheduleRecords = 1755
)

func TestEngineScheduleGolden(t *testing.T) {
	h, n := scheduleTrace(t, 1)
	if h != goldenScheduleHash || n != goldenScheduleRecords {
		t.Fatalf("schedule trace hash %#x over %d records, want %#x over %d",
			h, n, uint64(goldenScheduleHash), goldenScheduleRecords)
	}
}

// scheduleTrace runs a seeded random program of 8 threads on 4 cores, 200
// steps each, mixing Tick, Checkpoint, Mutex, WaitQueue waits with
// closure timeouts, WakeOne, timed self-wakes, At closures and a stale
// wake per thread. It hashes what every thread observes after every step
// (name, core clock, wake value), every closure run, and the final clocks
// and lock statistics.
func scheduleTrace(t *testing.T, seed int64) (hash uint64, records int) {
	const threads, cores, steps = 8, 4, 200
	e := newEngine(cores)
	h := fnv.New64a()
	rec := func(format string, args ...any) {
		fmt.Fprintf(h, format+"\n", args...)
		records++
	}
	var mus [2]Mutex
	var qs [2]WaitQueue
	for i := 0; i < threads; i++ {
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		e.Go(fmt.Sprintf("t%d", i), e.Mach.Cores[i%cores], func(th *Thread) {
			rec("%s start %d", th.Name, th.Now())
			for step := 0; step < steps; step++ {
				th.Core.Tick(uint64(1 + rng.Intn(64)))
				switch rng.Intn(6) {
				case 0:
					th.Checkpoint()
					rec("%s checkpoint %d", th.Name, th.Now())
				case 1:
					m := &mus[rng.Intn(len(mus))]
					m.Lock(th)
					rec("%s lock %d", th.Name, th.Now())
					th.Core.Tick(uint64(1 + rng.Intn(200)))
					if rng.Intn(2) == 0 {
						th.Checkpoint()
						rec("%s checkpoint %d", th.Name, th.Now())
					}
					m.Unlock(th)
				case 2:
					// The closure times the wait out unless a WakeOne took
					// the thread off the queue first.
					q := &qs[rng.Intn(len(qs))]
					at := th.Now() + uint64(1+rng.Intn(500))
					e.At(at, func() {
						if q.Remove(th) {
							e.Wake(th, at, "timeout")
						}
					})
					v := q.Wait(th)
					rec("%s wait %d %v", th.Name, th.Now(), v)
				case 3:
					q := &qs[rng.Intn(len(qs))]
					th.Checkpoint()
					ok := q.WakeOne(e, th.Now(), fmt.Sprintf("%s/%d", th.Name, step))
					rec("%s wakeone %d %v", th.Name, th.Now(), ok)
				case 4:
					e.Wake(th, th.Now()+uint64(rng.Intn(300)), step)
					v := th.Park()
					rec("%s sleep %d %v", th.Name, th.Now(), v)
				case 5:
					q := &qs[rng.Intn(len(qs))]
					at := th.Now() + uint64(rng.Intn(300))
					tag := fmt.Sprintf("%s/%d", th.Name, step)
					e.At(at, func() {
						rec("at %s %d %v", tag, at, q.WakeOne(e, at, "at "+tag))
					})
				}
			}
			e.Wake(th, th.Now()+1000, "stale") // delivered after the body returns
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range e.Mach.Cores {
		rec("core %d clock %d", i, c.Clock)
	}
	for i := range mus {
		rec("mutex %d %d %d %d", i, mus[i].Acquisitions, mus[i].Contended, mus[i].WaitCycles)
	}
	return h.Sum64(), records
}

// BenchmarkEngineSwitch measures one simulated context-switch round trip:
// two threads on two cores wake each other and park, b.N times each.
func BenchmarkEngineSwitch(b *testing.B) {
	e := newEngine(2)
	var ping, pong *Thread
	ping = e.Go("ping", e.Mach.Cores[0], func(th *Thread) {
		for i := 0; i < b.N; i++ {
			e.Wake(pong, th.Now(), nil)
			th.Park()
		}
	})
	pong = e.Go("pong", e.Mach.Cores[1], func(th *Thread) {
		for i := 0; i < b.N; i++ {
			th.Park()
			e.Wake(ping, th.Now(), nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestMutexExclusionAndTiming(t *testing.T) {
	e := newEngine(2)
	var m Mutex
	var sections [][2]uint64
	worker := func(th *Thread) {
		m.Lock(th)
		start := th.Now()
		th.Core.Tick(1000)
		end := th.Now()
		m.Unlock(th)
		sections = append(sections, [2]uint64{start, end})
	}
	e.Go("a", e.Mach.Cores[0], worker)
	e.Go("b", e.Mach.Cores[1], worker)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sections) != 2 {
		t.Fatalf("%d sections", len(sections))
	}
	// Critical sections must not overlap.
	a, b := sections[0], sections[1]
	if a[0] < b[1] && b[0] < a[1] {
		t.Fatalf("critical sections overlap: %v %v", a, b)
	}
	if m.Contended != 1 {
		t.Fatalf("contended = %d, want 1", m.Contended)
	}
	if m.WaitCycles == 0 {
		t.Fatal("no wait cycles recorded despite contention")
	}
}

func TestMutexFIFOHandoff(t *testing.T) {
	e := newEngine(4)
	var m Mutex
	var order []string
	hold := func(name string, delay uint64) func(*Thread) {
		return func(th *Thread) {
			th.Core.Tick(delay)
			m.Lock(th)
			order = append(order, name)
			th.Core.Tick(10_000)
			m.Unlock(th)
		}
	}
	e.Go("first", e.Mach.Cores[0], hold("first", 0))
	e.Go("second", e.Mach.Cores[1], hold("second", 100))
	e.Go("third", e.Mach.Cores[2], hold("third", 200))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("acquisition order %v, want %v", order, want)
		}
	}
}

func TestMutexUnlockByNonOwnerPanics(t *testing.T) {
	e := newEngine(2)
	var m Mutex
	e.Go("a", e.Mach.Cores[0], func(th *Thread) {
		defer func() {
			if recover() == nil {
				t.Error("unlock by non-owner did not panic")
			}
		}()
		m.Unlock(th)
	})
	_ = e.Run()
}

func TestWaitQueue(t *testing.T) {
	e := newEngine(2)
	var q WaitQueue
	var got any
	e.Go("w", e.Mach.Cores[0], func(th *Thread) {
		got = q.Wait(th)
	})
	e.Go("s", e.Mach.Cores[1], func(th *Thread) {
		th.Core.Tick(100)
		// Checkpoint so the waiter is queued before we signal (global-time
		// order: waiter enqueues at t=0, signaler at t=100).
		th.Checkpoint()
		if !q.WakeOne(th.Engine(), th.Now(), 42) {
			t.Error("no waiter found")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("wait returned %v", got)
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func() []uint64 {
		e := newEngine(4)
		var m Mutex
		var times []uint64
		for i := 0; i < 4; i++ {
			core := e.Mach.Cores[i]
			e.Go("t", core, func(th *Thread) {
				for j := 0; j < 10; j++ {
					m.Lock(th)
					th.Core.Tick(97)
					m.Unlock(th)
					th.Core.Tick(13)
				}
				times = append(times, th.Now())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: run1 %v run2 %v", a, b)
		}
	}
}
