package core

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/isa"
	"skybridge/internal/mk"
	"skybridge/internal/rewrite"
	"skybridge/internal/sim"
)

func newWorld(t testing.TB) (*sim.Engine, *mk.Kernel, *hv.Rootkernel, *SkyBridge) {
	return newWorldWith(t, false)
}

func newWorldWith(t testing.TB, kpti bool) (*sim.Engine, *mk.Kernel, *hv.Rootkernel, *SkyBridge) {
	t.Helper()
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 4, MemBytes: 4 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4, KPTI: kpti}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, k, rk, New(k, rk)
}

// registerEcho registers an echo server (doubles Regs[0], uppercases the
// shared-buffer payload in place) and returns its ID.
func registerEcho(t *testing.T, eng *sim.Engine, k *mk.Kernel, sb *SkyBridge, proc *mk.Process, core *hw.CPU) int {
	t.Helper()
	idCh := make(chan int, 1)
	proc.Spawn("reg", core, func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 8, 0x400100, func(env *mk.Env, req Request) Response {
			resp := Response{Regs: [4]uint64{req.Regs[0] * 2}}
			if req.Len > 0 {
				data := make([]byte, req.Len)
				env.Read(req.SharedBuf, data, req.Len)
				for i := range data {
					if data[i] >= 'a' && data[i] <= 'z' {
						data[i] -= 32
					}
				}
				env.Write(req.SharedBuf, data, len(data))
				resp.Len = req.Len
			}
			return resp
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
	return <-idCh
}

func TestDirectCallBasic(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	eng2 := k.Eng
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		resp, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{21}})
		if err != nil {
			t.Errorf("direct call: %v", err)
			return
		}
		if resp.Regs[0] != 42 {
			t.Errorf("resp = %d, want 42", resp.Regs[0])
		}
	})
	if err := eng2.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.DirectCalls != 1 {
		t.Fatalf("DirectCalls = %d", sb.DirectCalls)
	}
}

func TestDirectCallRoundTripCycles(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	var cycles uint64
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		for i := 0; i < 32; i++ { // warm caches and TLBs
			sb.DirectCall(env, id, Request{})
		}
		start := env.Now()
		const rounds = 200
		for i := 0; i < rounds; i++ {
			sb.DirectCall(env, id, Request{})
		}
		cycles = (env.Now() - start) / rounds
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Paper §6.3: "an IPC roundtrip in SkyBridge costs 396 cycles".
	if cycles < 340 || cycles > 450 {
		t.Fatalf("direct call roundtrip = %d cycles, want ~396", cycles)
	}
	t.Logf("direct call roundtrip: %d cycles", cycles)
	_ = eng
}

func TestDirectCallPayloadIntegrity(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	payload := []byte("the quick brown fox jumps over the lazy dog, 1024 bytes eventually")
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		buf := env.P.Alloc(hw.PageSize)
		env.Write(buf, payload, len(payload))
		resp, err := sb.DirectCall(env, id, Request{Buf: buf, Len: len(payload)})
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		got := make([]byte, resp.Len)
		conn.ReadReply(env, got, resp.Len)
		want := bytes.ToUpper(payload)
		if !bytes.Equal(got, want) {
			t.Errorf("payload corrupted:\n got %q\nwant %q", got, want)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCallingKeyRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		call func(sb *SkyBridge, env *mk.Env, id int) error
	}{
		{"sync", func(sb *SkyBridge, env *mk.Env, id int) error {
			_, err := sb.DirectCall(env, id, Request{})
			return err
		}},
		{"batch", func(sb *SkyBridge, env *mk.Env, id int) error {
			_, err := sb.DirectCallBatch(env, id, []Request{{Regs: [4]uint64{1}}, {Regs: [4]uint64{2}}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k, _, sb := newWorld(t)
			server := k.NewProcess("server")
			client := k.NewProcess("client")
			id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

			client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
				conn, err := sb.RegisterClient(env, id)
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				// Forge the key the trampoline presents, then restore it.
				key := conn.ServerKey
				conn.ServerKey = 0xBADBADBADBAD
				err = tc.call(sb, env, id)
				conn.ServerKey = key
				if !errors.Is(err, ErrBadKey) {
					t.Errorf("forged key: err = %v, want ErrBadKey", err)
				}
				assertNoOpenChain(t, sb)
				// The genuine key still works afterwards.
				if err := tc.call(sb, env, id); err != nil {
					t.Errorf("genuine call after rejection: %v", err)
				}
			})
			if err := k.Eng.Run(); err != nil {
				t.Fatal(err)
			}
			srv, _ := sb.Server(id)
			if srv.Rejected != 1 {
				t.Fatalf("Rejected = %d, want 1", srv.Rejected)
			}
		})
	}
}

func TestUnregisteredClientCannotCall(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	stranger := k.NewProcess("stranger")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	stranger.Spawn("s", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.DirectCall(env, id, Request{}); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("err = %v, want ErrNotRegistered", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConnectionLimit(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	idCh := make(chan int, 1)
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 2, 0, func(env *mk.Env, req Request) Response { return Response{} })
		if err != nil {
			t.Errorf("%v", err)
		}
		idCh <- id
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	id := <-idCh
	for i := 0; i < 3; i++ {
		c := k.NewProcess("c")
		i := i
		c.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
			_, err := sb.RegisterClient(env, id)
			if i < 2 && err != nil {
				t.Errorf("client %d rejected: %v", i, err)
			}
			if i == 2 && !errors.Is(err, ErrConnLimit) {
				t.Errorf("client 2: err = %v, want ErrConnLimit", err)
			}
		})
		if err := k.Eng.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDirectCallTimeout(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	idCh := make(chan int, 1)
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, _ := sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			env.Compute(1_000_000) // malicious: never comes back in time
			return Response{}
		})
		idCh <- id
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	id := <-idCh
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if _, err := sb.DirectCallTimeout(env, id, Request{}, 10_000); !errors.Is(err, ErrTimeout) {
			t.Errorf("err = %v, want ErrTimeout", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDirectCalls(t *testing.T) {
	// client -> server1 -> server2, exercising the dependency-closure
	// binding: the client's EPTP list must contain server2's entry with
	// the *client's* CR3 remapped, because CR3 never changes on the path.
	eng, k, _, sb := newWorld(t)
	s1 := k.NewProcess("s1")
	s2 := k.NewProcess("s2")
	client := k.NewProcess("client")
	core0 := k.Mach.Cores[0]

	var id1, id2 int
	s2.Spawn("reg2", core0, func(env *mk.Env) {
		id2, _ = sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			return Response{Regs: [4]uint64{req.Regs[0] + 100}}
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	s1.Spawn("reg1", core0, func(env *mk.Env) {
		id1, _ = sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			// Nested direct call from inside server1.
			r2, err := sb.DirectCall(env, id2, Request{Regs: [4]uint64{req.Regs[0] * 10}})
			if err != nil {
				t.Errorf("nested call: %v", err)
				return Response{}
			}
			return Response{Regs: [4]uint64{r2.Regs[0] + 1}}
		})
		// server1 is itself a client of server2.
		if _, err := sb.RegisterClient(env, id2); err != nil {
			t.Errorf("s1->s2 register: %v", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	client.Spawn("cli", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id1); err != nil {
			t.Errorf("client register: %v", err)
			return
		}
		resp, err := sb.DirectCall(env, id1, Request{Regs: [4]uint64{5}})
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		// 5 -> s1: nested (5*10=50) -> s2: +100 = 150 -> s1: +1 = 151.
		if resp.Regs[0] != 151 {
			t.Errorf("resp = %d, want 151", resp.Regs[0])
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationRewritesClientCode(t *testing.T) {
	// A process whose code contains a self-prepared VMFUNC (the faking
	// attack) gets its binary rewritten at registration: afterwards no
	// VMFUNC bytes remain outside the trampoline.
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	evil := k.NewProcess("evil")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	var a isa.Asm
	a.MovRI32(isa.RAX, 0)
	a.MovRI32(isa.RCX, int32(id))
	a.Vmfunc()                          // self-prepared VMFUNC targeting the server
	a.AluRI(isa.ADD, isa.RBX, 0xD4010F) // plus an inadvertent encoding
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	evil.MapCode(a.Bytes())

	evil.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := evil.ReadCode(); len(rewrite.FindPattern(got)) != 0 {
		t.Fatal("VMFUNC pattern survives in registered process code")
	}
	if sb.Rewrites == 0 {
		t.Fatal("no rewrite recorded")
	}
}

func TestTrampolineContainsOnlyLegitimateVMFuncs(t *testing.T) {
	code := TrampolineCode()
	occs := rewrite.FindPattern(code)
	if len(occs) != 2 {
		t.Fatalf("trampoline has %d VMFUNC encodings, want 2 (call+return)", len(occs))
	}
	// The page must decode cleanly up to the trailing zero fill.
	end := len(code)
	for end > 0 && code[end-1] == 0 {
		end--
	}
	if _, err := isa.DecodeAll(code[:end]); err != nil {
		t.Fatalf("trampoline does not decode: %v", err)
	}
}

func TestIdentityPageTracksEPTView(t *testing.T) {
	// The process-misidentification fix (§4.2): a kernel entry during a
	// direct call must attribute to the *server*.
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	core0 := k.Mach.Cores[0]

	var inHandler uint64
	idCh := make(chan int, 1)
	server.Spawn("reg", core0, func(env *mk.Env) {
		id, _ := sb.RegisterServer(env, 4, 0, func(env *mk.Env, req Request) Response {
			inHandler = k.CurrentIdentity(env.T.Core)
			return Response{}
		})
		idCh <- id
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	id := <-idCh

	var before, after uint64
	client.Spawn("cli", core0, func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		before = k.CurrentIdentity(env.T.Core)
		sb.DirectCall(env, id, Request{})
		after = k.CurrentIdentity(env.T.Core)
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if before != uint64(client.PID) || after != uint64(client.PID) {
		t.Fatalf("client identity = %d/%d, want %d", before, after, client.PID)
	}
	if inHandler != uint64(server.PID) {
		t.Fatalf("identity during handler = %d, want server pid %d", inHandler, server.PID)
	}
}

func TestNoVMExitsDuringDirectCalls(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		k.Mach.ResetVMExitCounts() // registration legitimately exits (hypercalls)
		for i := 0; i < 100; i++ {
			if _, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{1}}); err != nil {
				t.Errorf("call: %v", err)
				return
			}
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := k.Mach.TotalVMExits(); n != 0 {
		t.Fatalf("%d VM exits during direct calls, want 0 (%v)", n, k.Mach.VMExits)
	}
}

func TestSharedBufferIsolationPerConnection(t *testing.T) {
	// Two clients get distinct shared buffers; one client's payload never
	// appears in the other's buffer.
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	c1 := k.NewProcess("c1")
	c2 := k.NewProcess("c2")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	var conn1, conn2 *Connection
	c1.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
		conn1, _ = sb.RegisterClient(env, id)
		conn1.WriteRequest(env, []byte("from-c1"))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	c2.Spawn("r", k.Mach.Cores[0], func(env *mk.Env) {
		conn2, _ = sb.RegisterClient(env, id)
		var got [7]byte
		env.Read(conn2.ClientBuf, got[:], 7)
		if string(got[:]) == "from-c1" {
			t.Error("shared buffer leaked across connections")
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if conn1.ClientBuf == conn2.ClientBuf && conn1.Client == conn2.Client {
		t.Fatal("connections share a buffer")
	}
}

// TestDependencyBindingOrder: a client registered to a hub that is itself
// a client of four servers binds the hub and then the hub's dependencies
// in server-ID order, so in every fresh world the dependencies land in the
// same ascending EPTP slots.
func TestDependencyBindingOrder(t *testing.T) {
	var want []int
	for world := 0; world < 32; world++ {
		eng, k, rk, sb := newWorld(t)
		core0 := k.Mach.Cores[0]
		var deps []int
		for i := 0; i < 4; i++ {
			deps = append(deps, registerEcho(t, eng, k, sb, k.NewProcess(fmt.Sprintf("dep%d", i)), core0))
		}
		hubProc := k.NewProcess("hub")
		hub := registerEcho(t, eng, k, sb, hubProc, core0)
		bind := func(p *mk.Process, ids ...int) {
			p.Spawn("bind", core0, func(env *mk.Env) {
				for _, id := range ids {
					if _, err := sb.RegisterClient(env, id); err != nil {
						t.Errorf("bind %s to %d: %v", p.Name, id, err)
					}
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		}
		bind(hubProc, deps...)
		client := k.NewProcess("client")
		bind(client, hub)

		var slots []int
		for _, id := range deps {
			slot, err := rk.ResolveSlot(core0, client, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			slots = append(slots, slot)
		}
		if !slices.IsSorted(slots) {
			t.Fatalf("world %d: dependencies %v landed in slots %v, want ascending", world, deps, slots)
		}
		if world == 0 {
			want = slots
		} else if !slices.Equal(slots, want) {
			t.Fatalf("world %d: dependency slots %v, world 0 had %v", world, slots, want)
		}
	}
}
