package core

import (
	"bytes"
	"fmt"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// TestDirectCallBatchCorrectness: a batch of mixed register-only and
// payload requests returns the same responses, in order, as individual
// direct calls.
func TestDirectCallBatchCorrectness(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		const n = 6
		scratch := env.P.Alloc(hw.PageSize)
		reqs := make([]Request, n)
		var want [][]byte
		maxLen := 0
		for i := range reqs {
			reqs[i].Regs[0] = uint64(10 + i)
			if i%2 == 1 {
				payload := []byte(fmt.Sprintf("batch-req-%d", i))
				at := scratch + hw.VA(64*i)
				env.Write(at, payload, len(payload))
				reqs[i].Buf, reqs[i].Len = at, len(payload)
				want = append(want, bytes.ToUpper(payload))
				if len(payload) > maxLen {
					maxLen = len(payload)
				}
			} else {
				want = append(want, nil)
			}
		}
		layout, err := conn.Layout(n, maxLen)
		if err != nil {
			t.Errorf("layout: %v", err)
			return
		}
		resps, err := sb.DirectCallBatch(env, id, reqs)
		if err != nil {
			t.Errorf("batch call: %v", err)
			return
		}
		if len(resps) != n {
			t.Errorf("got %d responses, want %d", len(resps), n)
			return
		}
		for i, resp := range resps {
			if resp.Regs[0] != uint64(2*(10+i)) {
				t.Errorf("resp %d Regs[0] = %d, want %d", i, resp.Regs[0], 2*(10+i))
			}
			if want[i] == nil {
				continue
			}
			if resp.Len != len(want[i]) {
				t.Errorf("resp %d Len = %d, want %d", i, resp.Len, len(want[i]))
				continue
			}
			got := make([]byte, resp.Len)
			env.Read(conn.ClientBuf+hw.VA(layout.PayloadOff(i)), got, resp.Len)
			if !bytes.Equal(got, want[i]) {
				t.Errorf("resp %d payload = %q, want %q", i, got, want[i])
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.BatchCalls != 1 {
		t.Errorf("BatchCalls = %d, want 1", sb.BatchCalls)
	}
	if sb.DirectCalls != 6 {
		t.Errorf("DirectCalls = %d, want 6 (one per batched request)", sb.DirectCalls)
	}
}

// TestDirectCallBatchAmortizesCrossing: a batch of B requests costs
// noticeably less than B individual calls — the trampoline+VMFUNC round
// trip and the key check are paid once per crossing.
func TestDirectCallBatchAmortizes(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	const batch = 8
	var single, batched uint64
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		call := func(i int) Request { return Request{Regs: [4]uint64{uint64(i)}} }
		// Warm both paths.
		for i := 0; i < batch; i++ {
			if _, err := sb.DirectCall(env, id, call(i)); err != nil {
				t.Errorf("warm call: %v", err)
				return
			}
		}
		reqs := make([]Request, batch)
		for i := range reqs {
			reqs[i] = call(i)
		}
		if _, err := sb.DirectCallBatch(env, id, reqs); err != nil {
			t.Errorf("warm batch: %v", err)
			return
		}
		start := env.Now()
		for i := 0; i < batch; i++ {
			if _, err := sb.DirectCall(env, id, call(i)); err != nil {
				t.Errorf("call: %v", err)
				return
			}
		}
		single = env.Now() - start
		start = env.Now()
		if _, err := sb.DirectCallBatch(env, id, reqs); err != nil {
			t.Errorf("batch: %v", err)
			return
		}
		batched = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// One warm round trip is ~396 cycles; batching should save most of
	// (batch-1) of them even after paying the ring traffic.
	if batched >= single {
		t.Fatalf("batched %d cycles >= %d unbatched", batched, single)
	}
	saved := single - batched
	if saved < (batch-1)*250 {
		t.Errorf("batch of %d saved only %d cycles (unbatched %d, batched %d)", batch, saved, single, batched)
	}
}

// TestDirectCallBatchValidation: a batch whose slots cannot fit the
// shared buffer is rejected before the crossing, and ring limits are
// enforced.
func TestDirectCallBatchValidation(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		// Register-only batches get the floor slot size.
		layout, err := conn.Layout(4, 0)
		if err != nil {
			t.Errorf("layout: %v", err)
			return
		}
		if layout.SlotLen < 256 {
			t.Errorf("floor SlotLen = %d, want >= 256 (reply headroom)", layout.SlotLen)
		}
		calls := sb.DirectCalls
		// 8 slots of 4 KiB cannot fit the 16 KiB shared buffer.
		reqs := make([]Request, 8)
		for i := range reqs {
			reqs[i].Buf, reqs[i].Len = conn.ClientBuf, 4096
		}
		if _, err := sb.DirectCallBatch(env, id, reqs); err == nil {
			t.Error("batch overflowing the shared buffer accepted")
		}
		if sb.DirectCalls != calls {
			t.Error("failed batch still counted direct calls")
		}
		if _, err := conn.Layout(MaxBatch+1, 0); err == nil {
			t.Errorf("Layout(%d) accepted beyond MaxBatch", MaxBatch+1)
		}
		if _, err := conn.Layout(4, -1); err == nil {
			t.Error("Layout accepted a negative capacity")
		}
		if _, err := sb.DirectCallBatch(env, 9999, reqs[:2]); err != ErrNotRegistered {
			t.Errorf("unknown server: err = %v, want ErrNotRegistered", err)
		}
		if resps, err := sb.DirectCallBatch(env, id, nil); err != nil || resps != nil {
			t.Errorf("empty batch: resps=%v err=%v", resps, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDirectCallBatchOfOneDelegates: a 1-request batch takes the plain
// DirectCall path (no ring traffic, no BatchCalls increment).
func TestDirectCallBatchOfOneDelegates(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		resps, err := sb.DirectCallBatch(env, id, []Request{{Regs: [4]uint64{21}}})
		if err != nil {
			t.Errorf("batch of one: %v", err)
			return
		}
		if len(resps) != 1 || resps[0].Regs[0] != 42 {
			t.Errorf("batch of one: resps = %v", resps)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.BatchCalls != 0 {
		t.Errorf("BatchCalls = %d, want 0 for a batch of one", sb.BatchCalls)
	}
	if sb.DirectCalls != 1 {
		t.Errorf("DirectCalls = %d, want 1", sb.DirectCalls)
	}
}

// TestDirectCallBatchNested: a server handler may itself issue a batched
// call to another server mid-crossing; the slot stack keeps both EPT views
// resident and the chain unwinds correctly.
func TestDirectCallBatchNested(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	leafProc := k.NewProcess("leaf")
	leafID := registerEcho(t, eng, k, sb, leafProc, k.Mach.Cores[0])

	hubProc := k.NewProcess("hub")
	var hubID int
	hubProc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, leafID); err != nil {
			t.Errorf("hub->leaf bind: %v", err)
			return
		}
		var err error
		hubID, err = sb.RegisterServer(env, 8, 0x400200, func(env *mk.Env, req Request) Response {
			reqs := []Request{
				{Regs: [4]uint64{req.Regs[0]}},
				{Regs: [4]uint64{req.Regs[0] + 1}},
			}
			resps, err := sb.DirectCallBatch(env, leafID, reqs)
			if err != nil {
				t.Errorf("nested batch: %v", err)
				return Response{}
			}
			return Response{Regs: [4]uint64{resps[0].Regs[0] + resps[1].Regs[0]}}
		})
		if err != nil {
			t.Errorf("register hub: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	client := k.NewProcess("client")
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, hubID); err != nil {
			t.Errorf("bind hub: %v", err)
			return
		}
		resps, err := sb.DirectCallBatch(env, hubID, []Request{
			{Regs: [4]uint64{5}}, {Regs: [4]uint64{7}},
		})
		if err != nil {
			t.Errorf("outer batch: %v", err)
			return
		}
		// Hub(x) = 2x + 2(x+1).
		if resps[0].Regs[0] != 22 || resps[1].Regs[0] != 30 {
			t.Errorf("nested results = %v, want [22 30]", resps)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	assertNoOpenChain(t, sb)
}
