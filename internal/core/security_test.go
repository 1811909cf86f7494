package core

import (
	"bytes"
	"errors"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/isa"
	"skybridge/internal/mk"
)

// The tests in this file walk the paper's §7 security analysis, one threat
// at a time.

// TestSecMaliciousEPTSwitching (§7 "Malicious EPT switching"): a process
// whose binary carries a self-prepared VMFUNC is defanged at registration;
// and the instruction stream that remains decodes to the documented
// replacement (three NOPs for a literal VMFUNC).
func TestSecMaliciousEPTSwitching(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	attacker := k.NewProcess("attacker")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	var a isa.Asm
	a.MovRI32(isa.RAX, 0)
	a.MovRI32(isa.RCX, int32(id))
	a.Vmfunc()
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	attacker.MapCode(a.Bytes())

	attacker.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	code := attacker.ReadCode()
	insts, err := isa.DecodeAll(code)
	if err != nil {
		t.Fatalf("rewritten code does not decode: %v", err)
	}
	for _, in := range insts {
		if in.Op == isa.VMFUNC {
			t.Fatal("a VMFUNC instruction survives in the attacker's code")
		}
	}
}

// TestSecVMFuncDoesNotExposeAttackerCode: after a (hypothetical) raw EPTP
// switch, the attacker's own instructions are gone — every subsequent fetch
// translates through the *victim's* page table, so the attacker cannot run
// self-prepared code in the victim's address space, only jump into existing
// victim code (which the calling-key check gates at the legitimate entry).
func TestSecVMFuncDoesNotExposeAttackerCode(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	evil := []byte{0x48, 0xc7, 0xc0, 0x44, 0x33, 0x22, 0x11} // mov rax, 0x11223344
	client.MapCode(evil)
	// Map server-side bytes at the same VA so the post-switch view is
	// observable.
	srvBytes := []byte{0x90, 0x90, 0x90, 0x90, 0x90, 0x90, 0x90}
	frame := k.Mach.Mem.MustAllocFrame()
	k.Mach.Mem.Write(frame, srvBytes)
	server.MapAt(mk.UserTextBase, []hw.GPA{hw.GPA(frame)}, hw.PTEUser)

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		cpu := env.T.Core
		before, err := cpu.FetchCode(mk.UserTextBase, len(evil))
		if err != nil {
			t.Errorf("fetch before: %v", err)
			return
		}
		if err := cpu.VMFunc(0, 1); err != nil { // slot 1: the bound server view
			t.Errorf("vmfunc: %v", err)
			return
		}
		after, err := cpu.FetchCode(mk.UserTextBase, len(evil))
		cpu.VMFunc(0, 0)
		if err != nil {
			// Faulting is an acceptable outcome: the VA may be unmapped in
			// the server.
			return
		}
		if bytes.Equal(before, after) {
			t.Error("attacker's own code still fetchable after the EPTP switch")
		}
		if !bytes.Equal(after, srvBytes) {
			t.Errorf("post-switch fetch returned %x, want the server's bytes", after)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	_ = eng
}

// TestSecMeltdownStylePageTables (§7 "Meltdown Attacks"): SkyBridge keeps
// processes in separate page tables — and direct calls still work with the
// KPTI mitigation enabled in the Subkernel.
func TestSecMeltdownStylePageTables(t *testing.T) {
	eng, k, _, sb := newWorldWith(t, true)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	if server.PT.Root == client.PT.Root {
		t.Fatal("processes share a page table")
	}
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		resp, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{5}})
		if err != nil || resp.Regs[0] != 10 {
			t.Errorf("direct call under KPTI: %v %v", resp, err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSecDoSTimeout (§7 "DoS Attacks"): covered functionally by
// TestDirectCallTimeout; here we additionally check the server's failure
// does not wedge the client for subsequent calls to other servers.
func TestSecDoSTimeout(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	good := k.NewProcess("good")
	evil := k.NewProcess("evil")
	client := k.NewProcess("client")
	goodID := registerEcho(t, eng, k, sb, good, k.Mach.Cores[0])

	var evilID int
	evil.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		evilID, _ = sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			env.Compute(50_000_000) // never returns in time
			return Response{}
		})
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		sb.RegisterClient(env, goodID)
		sb.RegisterClient(env, evilID)
		if _, err := sb.DirectCallTimeout(env, evilID, Request{}, 10_000); !errors.Is(err, ErrTimeout) {
			t.Errorf("timeout: %v", err)
		}
		// The client is still functional against the good server.
		resp, err := sb.DirectCall(env, goodID, Request{Regs: [4]uint64{3}})
		if err != nil || resp.Regs[0] != 6 {
			t.Errorf("call after DoS: %v %v", resp, err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSecMaliciousServerCall (§7 "Malicious Server Call"): the EPTP list
// necessarily holds the server's dependencies, so a client CAN hardware-
// switch to a dependency it never registered with — but the library refuses
// (no binding), and a protocol-level call without the issued key is denied
// by the dependency's calling-key table.
func TestSecMaliciousServerCall(t *testing.T) {
	eng, k, rk, sb := newWorld(t)
	s2 := k.NewProcess("s2") // the sensitive dependency
	s1 := k.NewProcess("s1")
	client := k.NewProcess("client")
	core0 := k.Mach.Cores[0]

	var id1, id2 int
	s2.Spawn("reg", core0, func(env *mk.Env) {
		id2, _ = sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			return Response{Regs: [4]uint64{0x5EC12E7}}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s1.Spawn("reg", core0, func(env *mk.Env) {
		id1, _ = sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			r, err := sb.DirectCall(env, id2, Request{})
			if err != nil {
				return Response{}
			}
			return r
		})
		sb.RegisterClient(env, id2) // s1 legitimately depends on s2
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}

	client.Spawn("cli", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id1); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		// The legitimate nested path works.
		resp, err := sb.DirectCall(env, id1, Request{})
		if err != nil || resp.Regs[0] != 0x5EC12E7 {
			t.Errorf("nested path: %v %v", resp, err)
		}
		// The library refuses a direct call to the dependency.
		if _, err := sb.DirectCall(env, id2, Request{}); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("unregistered dependency call: %v", err)
		}
		// The client CAN hardware-switch to s2's view (the EPTP list must
		// contain it for nesting) — the paper concedes this — but it holds
		// no calling key for s2, so a protocol-level call is denied.
		slot, err := rk.ResolveSlot(env.T.Core, client, id2, []int{0})
		if err != nil {
			t.Errorf("resolve dep slot: %v", err)
			return
		}
		if err := env.T.Core.VMFunc(0, slot); err != nil {
			t.Errorf("hardware switch to dependency failed: %v", err)
			return
		}
		env.T.Core.VMFunc(0, 0)
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSecCallingKeysUnique: each connection gets its own 8-byte key, so a
// leaked key only exposes the leaker's own connection (§4.4).
func TestSecCallingKeysUnique(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	keys := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		c := k.NewProcess("c")
		c.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
			conn, err := sb.RegisterClient(env, id)
			if err != nil {
				t.Errorf("register: %v", err)
				return
			}
			if keys[conn.ServerKey] {
				t.Error("duplicate calling key issued")
			}
			keys[conn.ServerKey] = true
		})
		if err := k.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
	_ = eng
}

// TestSecStolenKeyFromAnotherConnection: presenting another connection's
// valid key is still rejected, because the trampoline checks the slot bound
// to *this* connection.
func TestSecStolenKeyFromAnotherConnection(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	victim := k.NewProcess("victim")
	thief := k.NewProcess("thief")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	var victimKey uint64
	victim.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
		conn, _ := sb.RegisterClient(env, id)
		victimKey = conn.ServerKey
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	thief.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		// Present the victim's key on the crossing, then restore our own.
		own := conn.ServerKey
		conn.ServerKey = victimKey
		_, err = sb.DirectCall(env, id, Request{})
		conn.ServerKey = own
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("stolen key accepted: %v", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestSecReplyLengthBounded: a server's reply length must fit where the
// client reads the reply back: the shared buffer for a call, the
// request's slot for a batch. A negative or oversized length fails the
// crossing, which still switches back to the client, and the next genuine
// call succeeds.
func TestSecReplyLengthBounded(t *testing.T) {
	for _, tc := range []struct {
		name  string
		batch bool
		bad   func(conn *Connection) int
	}{
		{"sync-negative", false, func(*Connection) int { return -1 }},
		{"sync-oversized", false, func(c *Connection) int { return c.BufLen + 1 }},
		{"batch-negative", true, func(*Connection) int { return -1 }},
		{"batch-oversized", true, func(c *Connection) int {
			l, _ := c.Layout(2, 0)
			return l.SlotLen + 1
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k, _, sb := newWorld(t)
			core0 := k.Mach.Cores[0]
			replyLen := 0
			var id int
			k.NewProcess("server").Spawn("reg", core0, func(env *mk.Env) {
				var err error
				id, err = sb.RegisterServer(env, 8, 0x400100, func(env *mk.Env, req Request) Response {
					return Response{Regs: [4]uint64{req.Regs[0] + 1}, Len: replyLen}
				})
				if err != nil {
					t.Errorf("register server: %v", err)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			call := func(env *mk.Env) error {
				if tc.batch {
					_, err := sb.DirectCallBatch(env, id, []Request{{Regs: [4]uint64{1}}, {Regs: [4]uint64{2}}})
					return err
				}
				_, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{1}})
				return err
			}
			k.NewProcess("client").Spawn("cli", core0, func(env *mk.Env) {
				conn, err := sb.RegisterClient(env, id)
				if err != nil {
					t.Errorf("register client: %v", err)
					return
				}
				replyLen = tc.bad(conn)
				err = call(env)
				replyLen = 0
				if err == nil {
					t.Errorf("reply length %d accepted", tc.bad(conn))
				}
				assertNoOpenChain(t, sb)
				if err := call(env); err != nil {
					t.Errorf("genuine call after the bad reply: %v", err)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
