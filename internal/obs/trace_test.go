package obs

import "testing"

func TestSpanNestingAndOrdering(t *testing.T) {
	tr := NewTracer()
	pt := tr.Process("m", 2)
	ct := pt.Core(0)

	outer := ct.Begin(10, "outer", "test")
	inner := ct.Begin(20, "inner", "test")
	ct.Instant(25, "mark", "test", U("k", 7))
	ct.End(inner, 30, U("ok", 1))
	ct.End(outer, 50)

	evs := ct.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	// Program order: outer opened first, then inner, then the instant.
	if evs[0].Name != "outer" || evs[1].Name != "inner" || evs[2].Name != "mark" {
		t.Fatalf("event order = %q %q %q", evs[0].Name, evs[1].Name, evs[2].Name)
	}
	if evs[0].Ts != 10 || evs[0].Dur != 40 {
		t.Errorf("outer = [%d, +%d), want [10, +40)", evs[0].Ts, evs[0].Dur)
	}
	if evs[1].Ts != 20 || evs[1].Dur != 10 {
		t.Errorf("inner = [%d, +%d), want [20, +10)", evs[1].Ts, evs[1].Dur)
	}
	// Inner nests strictly inside outer.
	if evs[1].Ts < evs[0].Ts || evs[1].Ts+evs[1].Dur > evs[0].Ts+evs[0].Dur {
		t.Errorf("inner [%d,+%d) not nested in outer [%d,+%d)",
			evs[1].Ts, evs[1].Dur, evs[0].Ts, evs[0].Dur)
	}
	if evs[2].Ph != PhaseInstant || evs[2].Ts != 25 {
		t.Errorf("instant = ph %q ts %d, want ph 'i' ts 25", evs[2].Ph, evs[2].Ts)
	}
	if len(evs[1].Args) != 1 || evs[1].Args[0] != (Arg{Key: "ok", Val: 1}) {
		t.Errorf("inner args = %v, want [{ok 1}]", evs[1].Args)
	}
	// The untouched second core stays empty.
	if pt.Core(1).Len() != 0 {
		t.Errorf("core1 has %d events, want 0", pt.Core(1).Len())
	}
	if n := pt.Core(0).Len() + pt.Core(1).Len(); n != 3 {
		t.Errorf("%d events in the process, want 3", n)
	}
}

func TestEndBeforeBeginClampsDuration(t *testing.T) {
	tr := NewTracer()
	ct := tr.Process("m", 1).Core(0)
	id := ct.Begin(100, "s", "test")
	ct.End(id, 90) // ts went backwards: duration stays 0, no underflow
	if d := ct.Events()[0].Dur; d != 0 {
		t.Errorf("Dur = %d, want 0", d)
	}
}

func TestBufferCapDropsNewest(t *testing.T) {
	tr := NewTracer()
	tr.EventCap = 3
	ct := tr.Process("m", 1).Core(0)

	a := ct.Begin(1, "a", "t")
	ct.Complete(2, 1, "b", "t")
	ct.Instant(3, "c", "t")
	// Buffer is now full: everything below is dropped, a's ID stays valid.
	if id := ct.Begin(4, "d", "t"); id != NoSpan {
		t.Fatalf("Begin on full buffer = %d, want NoSpan", id)
	}
	ct.Complete(5, 1, "e", "t")
	ct.Instant(6, "f", "t")
	ct.End(a, 10) // still lands on the right event

	if ct.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ct.Len())
	}
	if ct.Dropped != 3 {
		t.Errorf("Dropped = %d, want 3", ct.Dropped)
	}
	if tr.TotalDropped() != 3 {
		t.Errorf("TotalDropped = %d, want 3", tr.TotalDropped())
	}
	evs := ct.Events()
	if evs[0].Name != "a" || evs[0].Dur != 9 {
		t.Errorf("event 0 = %q dur %d, want a dur 9", evs[0].Name, evs[0].Dur)
	}
	if evs[1].Name != "b" || evs[2].Name != "c" {
		t.Errorf("kept %q %q, want b c (drop-newest)", evs[1].Name, evs[2].Name)
	}
}

func TestNilCoreTraceIsSafe(t *testing.T) {
	var ct *CoreTrace
	ct.Instant(1, "x", "t")
	ct.Complete(1, 1, "x", "t")
	id := ct.Begin(1, "x", "t")
	if id != NoSpan {
		t.Errorf("nil Begin = %d, want NoSpan", id)
	}
	ct.End(id, 2)
	ct.End(NoSpan, 2)
	if ct.Len() != 0 {
		t.Errorf("nil Len = %d, want 0", ct.Len())
	}
}

func TestProcessNumbering(t *testing.T) {
	tr := NewTracer()
	p0 := tr.Process("alpha", 1)
	p1 := tr.Process("beta", 2)
	if p0.Name() != "alpha" || p1.Name() != "beta" {
		t.Errorf("names = %q %q", p0.Name(), p1.Name())
	}
	if p1.Cores() != 2 {
		t.Errorf("beta cores = %d, want 2", p1.Cores())
	}
	if got := len(tr.Processes()); got != 2 {
		t.Errorf("Processes = %d, want 2", got)
	}
	// Distinct processes get distinct pids (visible through export paths);
	// the core tracks carry their owning pid.
	if p0.Core(0).pid == p1.Core(0).pid {
		t.Errorf("pids collide: %d", p0.Core(0).pid)
	}
}
