package core

import (
	"fmt"
	"testing"

	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// attachTap wires a capturing CallObserver to sb and returns the slice of
// records it accumulates.
func attachTap(sb *SkyBridge) *[]obs.CallRecord {
	recs := &[]obs.CallRecord{}
	sb.Calls = &obs.CallObserver{
		Breakdown: obs.NewBreakdown(),
		Tap:       func(r *obs.CallRecord) { *recs = append(*recs, *r) },
	}
	return recs
}

// assertExactPartition checks the invariant the whole breakdown rests on:
// every record's phase cycles sum exactly to its end-to-end latency.
func assertExactPartition(t *testing.T, recs []obs.CallRecord, kind obs.CallKind, wantN int) {
	t.Helper()
	if len(recs) != wantN {
		t.Fatalf("captured %d records, want %d", len(recs), wantN)
	}
	for i, r := range recs {
		if r.Kind != kind {
			t.Errorf("record %d: kind %v, want %v", i, r.Kind, kind)
		}
		if r.End <= r.Start {
			t.Errorf("record %d: empty interval [%d, %d)", i, r.Start, r.End)
		}
		if r.Flow == 0 {
			t.Errorf("record %d: zero flow id", i)
		}
		var sum uint64
		for _, v := range r.Phases {
			sum += v
		}
		if sum != r.E2E() {
			t.Errorf("record %d: phases sum to %d, e2e %d (phases %v)",
				i, sum, r.E2E(), r.Phases)
		}
	}
}

// TestCallRecordExactPartitionSync: every DirectCall record partitions its
// round trip exactly into service + crossing, with ordinal flow IDs.
func TestCallRecordExactPartitionSync(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	recs := attachTap(sb)

	const n = 10
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			if _, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{uint64(i)}}); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	assertExactPartition(t, *recs, obs.CallSync, n)
	for i, r := range *recs {
		if want := obs.FlowSync | uint64(i+1); r.Flow != want {
			t.Errorf("record %d: flow %#x, want %#x", i, r.Flow, want)
		}
		if r.Phases[obs.PhaseService] == 0 || r.Phases[obs.PhaseCrossing] == 0 {
			t.Errorf("record %d: service/crossing = %d/%d, want both nonzero",
				i, r.Phases[obs.PhaseService], r.Phases[obs.PhaseCrossing])
		}
	}
	// The aggregate breakdown preserves the identity: phase sums total the
	// e2e sum exactly.
	b := sb.Calls.Breakdown
	var phaseTotal uint64
	for p := obs.CallPhase(0); p < obs.NumCallPhases; p++ {
		phaseTotal += b.Phase(p).Sum()
	}
	if phaseTotal != b.E2E().Sum() {
		t.Errorf("breakdown phase total %d != e2e total %d", phaseTotal, b.E2E().Sum())
	}
}

// TestCallRecordExactPartitionBatch: one record per request inside a
// DirectCallBatch, each an exact partition, all sharing the batch's flow.
func TestCallRecordExactPartitionBatch(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	recs := attachTap(sb)

	const batches, per = 3, 5
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		for b := 0; b < batches; b++ {
			reqs := make([]Request, per)
			for i := range reqs {
				reqs[i] = Request{Regs: [4]uint64{uint64(b*per + i)}}
			}
			if _, err := sb.DirectCallBatch(env, id, reqs); err != nil {
				t.Errorf("batch %d: %v", b, err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	assertExactPartition(t, *recs, obs.CallBatch, batches*per)
	for i, r := range *recs {
		if want := obs.FlowBatch | uint64(i/per+1); r.Flow != want {
			t.Errorf("record %d: flow %#x, want %#x", i, r.Flow, want)
		}
		// Requests in one batch share the convoy window: same Start/End.
		if first := (*recs)[(i/per)*per]; r.Start != first.Start || r.End != first.End {
			t.Errorf("record %d: window [%d,%d) differs from batch head [%d,%d)",
				i, r.Start, r.End, first.Start, first.End)
		}
	}
	// Later requests in a batch wait longer before service and less after.
	head, tail := (*recs)[0], (*recs)[per-1]
	if tail.Phases[obs.PhaseRingWait] <= head.Phases[obs.PhaseRingWait] {
		t.Errorf("ring_wait head %d, tail %d: want tail larger",
			head.Phases[obs.PhaseRingWait], tail.Phases[obs.PhaseRingWait])
	}
	if head.Phases[obs.PhaseReapDelay] <= tail.Phases[obs.PhaseReapDelay] {
		t.Errorf("reap_delay head %d, tail %d: want head larger",
			head.Phases[obs.PhaseReapDelay], tail.Phases[obs.PhaseReapDelay])
	}
}

// TestCallRecordExactPartitionAsync: a QD-8 ring driven cross-core yields
// one exact-partition record per submission, tagged with the ring's flow
// namespace and the reap's wake kind.
func TestCallRecordExactPartitionAsync(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	recs := attachTap(sb)
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})

	const n = 20
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
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
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("obs-req-%02d", i))
			env.Write(r.SlotVA(), payload, len(payload))
			if err := r.Submit(env, Request{
				Regs: [4]uint64{uint64(i)},
				Buf:  r.SlotVA(), Len: len(payload),
			}); err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if err := r.Flush(env); err != nil {
				t.Errorf("flush %d: %v", i, err)
				return
			}
			minN := 0
			if r.Inflight() == 8 {
				minN = 1
			}
			if _, err := r.Reap(env, minN); err != nil {
				t.Errorf("reap: %v", err)
				return
			}
		}
		for r.Inflight() > 0 {
			if err := r.Flush(env); err != nil {
				t.Errorf("final flush: %v", err)
				return
			}
			if _, err := r.Reap(env, r.Inflight()); err != nil {
				t.Errorf("final reap: %v", err)
				return
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	assertExactPartition(t, *recs, obs.CallAsync, n)
	seen := map[uint64]bool{}
	for i, r := range *recs {
		const ringID = 1 // first ring opened on this SkyBridge
		if want := obs.FlowAsync | uint64(ringID)<<32 | r.Seq; r.Flow != want {
			t.Errorf("record %d: flow %#x, want %#x", i, r.Flow, want)
		}
		if seen[r.Flow] {
			t.Errorf("record %d: duplicate flow %#x", i, r.Flow)
		}
		seen[r.Flow] = true
	}
}

// TestFlightRecorderDumpsSlowestCall: a tail outlier in a steady stream of
// direct calls produces a flight dump whose trigger is the slowest call
// and whose chain is the chronological run-up to it.
func TestFlightRecorderDumpsSlowestCall(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	idCh := make(chan int, 1)
	const slowReg = 777
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 8, 0x400100, func(env *mk.Env, req Request) Response {
			if req.Regs[0] == slowReg {
				env.Compute(200_000) // the pathological request
			}
			return Response{Regs: [4]uint64{req.Regs[0]}}
		})
		if err != nil {
			t.Errorf("register server: %v", err)
			return
		}
		idCh <- id
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	id := <-idCh

	flight := obs.NewFlightRecorder(obs.FlightConfig{Ring: 64, MinCalls: 32, MaxDumps: 16})
	sb.Calls = &obs.CallObserver{Breakdown: obs.NewBreakdown(), Flight: flight}

	const fast = 100
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		call := func(reg uint64) {
			if _, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{reg}}); err != nil {
				t.Errorf("call %d: %v", reg, err)
			}
		}
		for i := 0; i < fast; i++ {
			call(uint64(i))
		}
		call(slowReg)
		for i := 0; i < 10; i++ {
			call(uint64(fast + i))
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	dumps := flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("no flight dumps for a 200k-cycle tail outlier")
	}
	// Find the dump triggered by the slowest observed call.
	slowest := sb.Calls.Breakdown.E2E().Max()
	var hit *obs.FlightDump
	for i := range dumps {
		if dumps[i].Trigger.E2E() == slowest {
			hit = &dumps[i]
		}
	}
	if hit == nil {
		t.Fatalf("no dump triggered by the slowest call (%d cycles); triggers: %v",
			slowest, len(dumps))
	}
	if hit.Trigger.Phases[obs.PhaseService] < 200_000 {
		t.Errorf("trigger service phase = %d, want >= 200000 (the injected stall)",
			hit.Trigger.Phases[obs.PhaseService])
	}
	if hit.Threshold == 0 || hit.Threshold >= hit.Trigger.E2E() {
		t.Errorf("threshold = %d, want in (0, %d)", hit.Threshold, hit.Trigger.E2E())
	}
	if len(hit.Chain) == 0 {
		t.Fatal("empty causal chain")
	}
	for i := 1; i < len(hit.Chain); i++ {
		if hit.Chain[i].Start < hit.Chain[i-1].Start {
			t.Fatal("chain not chronological")
		}
	}
	if last := hit.Chain[len(hit.Chain)-1]; last.End > hit.Trigger.Start {
		t.Errorf("chain tail ends at %d, after trigger start %d", last.End, hit.Trigger.Start)
	}
}
