package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// spinLoop is the loop Thread.Spin stands for. It counts the checkpoints
// that yield, so the test can require that the worlds exercise Run's side
// of Spin.
func spinLoop(t *Thread, step func() bool, yields *int) {
	for {
		if t.mustYield() {
			*yields++
		}
		t.Checkpoint()
		if step() {
			return
		}
	}
}

// spinWorld runs a seeded world on two cores: three spinners (two sharing
// core 0) wait for shared counters to reach targets within a cycle
// budget, while two writers and their At closures bump the counters.
// Every charge is a multiple of 8 cycles, so wakes tie at equal times.
// A spinner's step sometimes wakes a writer parked on a queue, from
// inside the step. The log holds every step (thread, clock, engine
// sequence number), every writer action and closure, and the final
// clocks and sequence number. useSpin picks t.Spin(step) or spinLoop.
func spinWorld(t *testing.T, seed int64, useSpin bool) (log []string, yields int) {
	t.Helper()
	e := newEngine(2)
	rec := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	var counters [3]int
	var idle WaitQueue
	spin := func(th *Thread, step func() bool) {
		if useSpin {
			th.Spin(step)
		} else {
			spinLoop(th, step, &yields)
		}
	}
	for i, core := range []int{0, 0, 1} {
		rng := rand.New(rand.NewSource(seed*100 + int64(i)))
		e.Go(fmt.Sprintf("spin%d", i), e.Mach.Cores[core], func(th *Thread) {
			for round := 0; round < 12; round++ {
				c := rng.Intn(len(counters))
				target := counters[c] + 1 + rng.Intn(2)
				budget := uint64(8 * rng.Intn(60))
				kick := rng.Intn(3) == 0
				start := th.Now()
				spin(th, func() bool {
					rec("%s step %d seq %d", th.Name, th.Now(), e.seq)
					if kick && idle.WakeOne(e, th.Now(), th.Name) {
						kick = false
					}
					if counters[c] >= target || th.Now()-start >= budget {
						return true
					}
					th.Core.Tick(8)
					return false
				})
				rec("%s spun %d seq %d counter %d", th.Name, th.Now(), e.seq, counters[c])
				th.Core.Tick(uint64(8 * rng.Intn(4)))
			}
		})
	}
	for i := 0; i < 2; i++ {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(i)))
		e.Go(fmt.Sprintf("write%d", i), e.Mach.Cores[i], func(th *Thread) {
			for step := 0; step < 40; step++ {
				th.Core.Tick(uint64(8 * rng.Intn(6)))
				switch rng.Intn(5) {
				case 0, 1:
					th.Checkpoint()
					c := rng.Intn(len(counters))
					counters[c]++
					rec("%s bump %d %d seq %d", th.Name, c, th.Now(), e.seq)
				case 2:
					e.Wake(th, th.Now()+uint64(8*rng.Intn(8)), nil)
					th.Park()
					rec("%s slept %d seq %d", th.Name, th.Now(), e.seq)
				case 3:
					at, c := th.Now()+uint64(8*rng.Intn(10)), rng.Intn(len(counters))
					e.At(at, func() {
						counters[c]++
						rec("at bump %d %d seq %d", c, at, e.seq)
					})
				default:
					// Wait for a spinner's kick, or time out.
					at := th.Now() + uint64(8*(1+rng.Intn(20)))
					e.At(at, func() {
						if idle.Remove(th) {
							e.Wake(th, at, "timeout")
						}
					})
					v := idle.Wait(th)
					rec("%s woke %d %v seq %d", th.Name, th.Now(), v, e.seq)
				}
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, c := range e.Mach.Cores {
		rec("core %d clock %d", i, c.Clock)
	}
	rec("seq %d counters %v", e.seq, counters)
	return log, yields
}

// TestSpinMatchesCheckpointLoop: Thread.Spin produces the same steps at
// the same clocks and sequence numbers, the same writer actions and
// closures in the same order, and the same final clocks as the Checkpoint
// loop it replaces.
func TestSpinMatchesCheckpointLoop(t *testing.T) {
	yields := 0
	for seed := int64(1); seed <= 20; seed++ {
		want, y := spinWorld(t, seed, false)
		yields += y
		got, _ := spinWorld(t, seed, true)
		if i := firstDiff(want, got); i >= 0 {
			t.Fatalf("seed %d: Spin diverges from the Checkpoint loop at record %d:\nloop: %s\nSpin: %s",
				seed, i, logAt(want, i), logAt(got, i))
		}
	}
	if yields == 0 {
		t.Fatal("no spin checkpoint yielded: the worlds never reach Run's side of Spin")
	}
}

func firstDiff(a, b []string) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func logAt(log []string, i int) string {
	if i < len(log) {
		return log[i]
	}
	return "<end of log>"
}

// TestSpinStepMustNotPark: Park from a Spin step panics with the
// thread's name, both for the step Spin calls itself and for one Run
// calls after a yield.
func TestSpinStepMustNotPark(t *testing.T) {
	for _, afterYield := range []bool{false, true} {
		e := newEngine(2)
		e.Go("spinner", e.Mach.Cores[0], func(th *Thread) {
			calls := 0
			th.Spin(func() bool {
				calls++
				if !afterYield || calls > 1 {
					th.Park()
				}
				return false
			})
		})
		if afterYield {
			// A thread starting on another core at the same time makes the
			// spinner's second checkpoint yield.
			e.Go("other", e.Mach.Cores[1], func(th *Thread) {})
		}
		got := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			_ = e.Run()
			return ""
		}()
		if !strings.Contains(got, "Spin step") || !strings.Contains(got, `"spinner"`) {
			t.Errorf("afterYield %v: Run panicked with %q, want a Park-from-Spin-step panic naming the thread", afterYield, got)
		}
	}
}

// TestSpinResumesThreadAfterStep: once a step run by Run returns true,
// the thread continues after Spin at the step's clock, and later Parks
// work normally.
func TestSpinResumesThreadAfterStep(t *testing.T) {
	e := newEngine(2)
	flag := false
	var trail []string
	var spinner *Thread
	spinner = e.Go("spinner", e.Mach.Cores[0], func(th *Thread) {
		th.Spin(func() bool {
			if flag {
				return true
			}
			th.Core.Tick(10)
			return false
		})
		trail = append(trail, fmt.Sprintf("spun %d", th.Now()))
		v := th.Park()
		trail = append(trail, fmt.Sprintf("woke %d %v", th.Now(), v))
	})
	e.Go("setter", e.Mach.Cores[1], func(th *Thread) {
		th.Core.Tick(35)
		th.Checkpoint()
		flag = true
		th.Core.Tick(100)
		th.Checkpoint()
		e.Wake(spinner, th.Now(), "kick")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The setter raises the flag at 35; the spinner's steps run at 0, 10,
	// 20, 30 and 40, and the one at 40 sees it.
	if want := []string{"spun 40", "woke 135 kick"}; !slices.Equal(trail, want) {
		t.Fatalf("trail %v, want %v", trail, want)
	}
}
