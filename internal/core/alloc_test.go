package core

import (
	"testing"

	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// newCallObserver is the observer a bench world attaches: a breakdown and
// a flight recorder, no tap.
func newCallObserver() *obs.CallObserver {
	return &obs.CallObserver{Breakdown: obs.NewBreakdown(), Flight: obs.NewFlightRecorder(obs.FlightConfig{})}
}

// warmAllocs runs op 256 times to warm the simulated caches and the host
// structures, then returns op's heap allocations per run.
func warmAllocs(t *testing.T, op func() error) float64 {
	run := func() {
		if err := op(); err != nil {
			t.Errorf("crossing: %v", err)
		}
	}
	for i := 0; i < 256; i++ {
		run()
	}
	return testing.AllocsPerRun(200, run)
}

// TestDirectCallAllocs: a warm 0-byte DirectCall makes no host heap
// allocation, with or without a call observer attached.
func TestDirectCallAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	for _, observed := range []bool{false, true} {
		eng, k, _, sb := newWorld(t)
		core0 := k.Mach.Cores[0]
		id := registerEcho(t, eng, k, sb, k.NewProcess("server"), core0)
		var flight *obs.FlightRecorder // nil-safe when unobserved
		if observed {
			sb.Calls = newCallObserver()
			flight = sb.Calls.Flight
		}
		var allocs float64
		k.NewProcess("client").Spawn("cli", core0, func(env *mk.Env) {
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client: %v", err)
				return
			}
			allocs = warmAllocs(t, func() error {
				_, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{1}})
				return err
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("observer %v: %v allocations per DirectCall, want 0", observed, allocs)
		}
		if n := len(flight.Dumps()); n != 0 {
			t.Errorf("%d flight dumps: the guard must measure the no-dump path", n)
		}
	}
}

// TestDirectCallBatchAllocs: a warm two-request batch allocates only the
// response slice it returns to the caller.
func TestDirectCallBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	eng, k, _, sb := newWorld(t)
	core0 := k.Mach.Cores[0]
	id := registerEcho(t, eng, k, sb, k.NewProcess("server"), core0)
	sb.Calls = newCallObserver()
	var allocs float64
	k.NewProcess("client").Spawn("cli", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		reqs := []Request{{Regs: [4]uint64{1}}, {Regs: [4]uint64{2}}}
		allocs = warmAllocs(t, func() error {
			_, err := sb.DirectCallBatch(env, id, reqs)
			return err
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 1 {
		t.Errorf("%v allocations per batch, want 1 (the returned responses)", allocs)
	}
}

// TestDoorbellAllocs: a warm async-ring doorbell crossing makes no host
// heap allocation.
func TestDoorbellAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})
	sb.Calls = newCallObserver()
	var allocs float64
	k.NewProcess("client").Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer rs.Close(env)
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		r, err := sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		allocs = warmAllocs(t, func() error { return r.Doorbell(env) })
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%v allocations per doorbell, want 0", allocs)
	}
}

// TestRingRoundTripAllocs: a warm async-ring round trip (Submit, Flush,
// and a blocking Reap of the one completion) allocates only the
// completion slice Reap returns, with or without a call observer
// attached.
func TestRingRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	for _, observed := range []bool{false, true} {
		eng, k, _, sb := newWorld(t)
		server := k.NewProcess("server")
		id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
		rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})
		if observed {
			sb.Calls = newCallObserver()
		}
		var allocs float64
		k.NewProcess("client").Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
			defer rs.Close(env)
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client: %v", err)
				return
			}
			r, err := sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
			if err != nil {
				t.Errorf("open ring: %v", err)
				return
			}
			allocs = warmAllocs(t, func() error {
				if err := r.Submit(env, Request{Regs: [4]uint64{1}}); err != nil {
					return err
				}
				if err := r.Flush(env); err != nil {
					return err
				}
				_, err := r.Reap(env, 1)
				return err
			})
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if allocs != 1 {
			t.Errorf("observer %v: %v allocations per round trip, want 1 (the reaped completions)", observed, allocs)
		}
	}
}

// TestFrontendIdleWaitAllocs: a warm frontend drain's idle wait allocates
// nothing. Each round trip first leaves the drain idle while the tenant
// computes in 100-cycle slices on another core, so the drain's spin yields
// at its checkpoints; then the tenant submits and flushes, the spin sees
// the directory bit and ends in a spin wake, and the tenant reaps. The
// round trip allocates only the completion slice Reap returns.
func TestFrontendIdleWaitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector can add allocations")
	}
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[1], FrontendConfig{})
	procs, rings := openTenants(t, eng, k, fe, 1, 0, 64, k.Mach.Cores[0])
	spawnDrain(t, fe, server, k.Mach.Cores[1])
	var allocs float64
	var spinWakes, parks uint64
	procs[0].Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer fe.Close(env)
		r := rings[0]
		roundTrip := func() error {
			for i := 0; i < 8; i++ {
				env.Compute(100)
				env.T.Checkpoint()
			}
			if err := r.Submit(env, Request{Regs: [4]uint64{1}}); err != nil {
				return err
			}
			if err := r.Flush(env); err != nil {
				return err
			}
			_, err := r.Reap(env, 1)
			return err
		}
		for i := 0; i < 256; i++ {
			if err := roundTrip(); err != nil {
				t.Errorf("round trip: %v", err)
				return
			}
		}
		spinWakes, parks = k.SpinWakes, k.Parks
		allocs = warmAllocs(t, roundTrip)
		spinWakes, parks = k.SpinWakes-spinWakes, k.Parks-parks
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// warmAllocs runs 256 warm-up and 201 measured round trips; each has
	// the drain's idle wait and the tenant's blocking Reap.
	const rounds = 256 + 201
	if parks != 0 || spinWakes != 2*rounds {
		t.Fatalf("%d spin wakes and %d parks over %d round trips, want %d and 0: the waits must end in the spin",
			spinWakes, parks, rounds, 2*rounds)
	}
	if allocs != 1 {
		t.Errorf("%v allocations per round trip, want 1 (the reaped completions)", allocs)
	}
}

// BenchmarkDirectCall times one warm echo DirectCall on the host with a
// call observer attached: register-only, and a 1 KiB payload the client
// writes in place and reads back. ns/op is host time per simulated call.
func BenchmarkDirectCall(b *testing.B) {
	for _, c := range []struct {
		name string
		size int
	}{{"0B", 0}, {"1KiB", 1024}} {
		b.Run(c.name, func(b *testing.B) { benchDirectCall(b, c.size) })
	}
}

func benchDirectCall(b *testing.B, size int) {
	eng, k, _, sb := newWorld(b)
	core0 := k.Mach.Cores[0]
	var id int
	scratch := make([]byte, size)
	k.NewProcess("server").Spawn("reg", core0, func(env *mk.Env) {
		var err error
		id, err = sb.RegisterServer(env, 8, 0x400100, func(env *mk.Env, req Request) Response {
			if req.Len > 0 {
				env.Read(req.SharedBuf, scratch, req.Len)
				env.Write(req.SharedBuf, scratch, req.Len)
			}
			return Response{Regs: [4]uint64{req.Regs[0] + 1}, Len: req.Len}
		})
		if err != nil {
			b.Errorf("register server: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
	sb.Calls = newCallObserver()
	payload, reply := make([]byte, size), make([]byte, size)
	k.NewProcess("client").Spawn("cli", core0, func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			b.Errorf("register client: %v", err)
			return
		}
		req := Request{Regs: [4]uint64{1}}
		if size > 0 {
			req.Buf, req.Len = conn.ClientBuf, size
		}
		call := func() bool {
			if size > 0 {
				conn.WriteRequest(env, payload)
			}
			resp, err := sb.DirectCall(env, id, req)
			if err != nil {
				b.Errorf("call: %v", err)
				return false
			}
			if resp.Len > 0 {
				conn.ReadReply(env, reply, resp.Len)
			}
			return true
		}
		for i := 0; i < 256; i++ {
			call()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N && call(); i++ {
		}
		b.StopTimer()
	})
	if err := eng.Run(); err != nil {
		b.Fatal(err)
	}
}
