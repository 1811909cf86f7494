package core

import (
	"strings"
	"testing"

	"skybridge/internal/mk"
)

// assertNoOpenChain checks that every thread's chain state is back at its
// root: depth 1, on slot 0.
func assertNoOpenChain(t *testing.T, sb *SkyBridge) {
	t.Helper()
	if len(sb.tc) == 0 {
		t.Error("no thread has chain state")
	}
	for th, tc := range sb.tc {
		if len(tc.stack) != 1 || tc.stack[0] != 0 {
			t.Errorf("thread %s left a chain open: slot stack %v", th.Name, tc.stack)
		}
	}
}

// TestChainContextPerTopLevelCall: one thread opens consecutive top-level
// chains from Envs of two different client processes, each bound to its
// own server only. The thread's reused chain state must take each chain's
// context process from the Env that opened it; resolving a slot against
// the previous chain's process would find no EPT binding and fail.
func TestChainContextPerTopLevelCall(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	core0 := k.Mach.Cores[0]
	idA := registerEcho(t, eng, k, sb, k.NewProcess("serverA"), core0)
	idB := registerEcho(t, eng, k, sb, k.NewProcess("serverB"), core0)
	cliA := k.NewProcess("clientA")
	cliB := k.NewProcess("clientB")
	cliB.Spawn("bind", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, idB); err != nil {
			t.Errorf("bind clientB: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	cliA.Spawn("cli", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, idA); err != nil {
			t.Errorf("bind clientA: %v", err)
			return
		}
		envB := &mk.Env{T: env.T, P: cliB, K: env.K}
		chains := []struct {
			env *mk.Env
			id  int
		}{{env, idA}, {envB, idB}, {env, idA}, {envB, idB}}
		for i, c := range chains {
			arg := uint64(10 + i)
			resp, err := sb.DirectCall(c.env, c.id, Request{Regs: [4]uint64{arg}})
			if err != nil {
				t.Errorf("chain %d (%s -> server %d): %v", i, c.env.P.Name, c.id, err)
				continue
			}
			if resp.Regs[0] != 2*arg {
				t.Errorf("chain %d: reply %d, want %d", i, resp.Regs[0], 2*arg)
			}
			if got := sb.tc[env.T].proc; got != c.env.P {
				t.Errorf("chain %d: context process %s, want %s", i, got.Name, c.env.P.Name)
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	assertNoOpenChain(t, sb)
}

// TestFailedCallLeavesNoChainState: a top-level call that fails before its
// first VMFUNC must leave nothing behind that changes the thread's next
// chain. The failing call comes from an Env of a process holding a
// connection the Rootkernel never bound at the EPT level, so its slot
// resolve fails; the next call, from the thread's own process, must open a
// fresh chain in that process's context and succeed.
func TestFailedCallLeavesNoChainState(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	core0 := k.Mach.Cores[0]
	id := registerEcho(t, eng, k, sb, k.NewProcess("server"), core0)
	otherID := registerEcho(t, eng, k, sb, k.NewProcess("other"), core0)
	client := k.NewProcess("client")
	rogue := k.NewProcess("rogue")
	rogue.Spawn("bind", core0, func(env *mk.Env) {
		// A real registration elsewhere maps rogue's trampoline.
		if _, err := sb.RegisterClient(env, otherID); err != nil {
			t.Errorf("bind rogue: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	client.Spawn("cli", core0, func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("bind client: %v", err)
			return
		}
		sb.bindings[rogue][id] = conn
		renv := &mk.Env{T: env.T, P: rogue, K: env.K}
		_, err = sb.DirectCall(renv, id, Request{Regs: [4]uint64{1}})
		if err == nil || !strings.Contains(err.Error(), "slot resolve") {
			t.Errorf("unbound call: err = %v, want a slot-resolve failure", err)
		}
		if tc := sb.tc[env.T]; len(tc.stack) != 1 {
			t.Errorf("failed call left slot stack %v", tc.stack)
		}
		resp, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{21}})
		if err != nil {
			t.Errorf("call after the failure: %v", err)
			return
		}
		if resp.Regs[0] != 42 {
			t.Errorf("reply %d, want 42", resp.Regs[0])
		}
		if got := sb.tc[env.T].proc; got != client {
			t.Errorf("context process %s, want client", got.Name)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	assertNoOpenChain(t, sb)
}
