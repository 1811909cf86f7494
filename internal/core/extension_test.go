package core

import (
	"testing"

	"skybridge/internal/isa"
	"skybridge/internal/mk"
	"skybridge/internal/rewrite"
)

// TestManyServersWithSlotEviction exercises the §10 extension end to end:
// a client bound to more servers than the 512-entry hardware EPTP list can
// hold keeps making correct direct calls while the Rootkernel transparently
// evicts and reloads slots.
func TestManyServersWithSlotEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 530 processes")
	}
	eng, k, rk, sb := newWorld(t)
	const nservers = 530
	client := k.NewProcess("client")
	core0 := k.Mach.Cores[0]

	ids := make([]int, nservers)
	for i := 0; i < nservers; i++ {
		i := i
		proc := k.NewProcess("srv")
		proc.Spawn("reg", core0, func(env *mk.Env) {
			id, err := sb.RegisterServer(env, 2, 0, func(env *mk.Env, req Request) Response {
				return Response{Regs: [4]uint64{req.Regs[0] + uint64(i)}}
			})
			if err != nil {
				t.Errorf("register %d: %v", i, err)
				return
			}
			ids[i] = id
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	client.Spawn("cli", core0, func(env *mk.Env) {
		for i, id := range ids {
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("bind %d: %v", i, err)
				return
			}
		}
		// Sweep every server twice: the second sweep re-faults the evicted
		// majority back in.
		for sweep := 0; sweep < 2; sweep++ {
			for i, id := range ids {
				resp, err := sb.DirectCall(env, id, Request{Regs: [4]uint64{100}})
				if err != nil {
					t.Errorf("sweep %d call %d: %v", sweep, i, err)
					return
				}
				if resp.Regs[0] != uint64(100+i) {
					t.Errorf("server %d returned %d, want %d", i, resp.Regs[0], 100+i)
					return
				}
			}
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rk.SlotEvictions == 0 {
		t.Fatal("no slot evictions despite 530 bindings")
	}
	t.Logf("slot loads: %d, evictions: %d", rk.SlotLoads, rk.SlotEvictions)
}

// TestRemapCodePagesRescansJITCode exercises the §9 W⊕X extension: code
// generated after registration is rescanned and rewritten when remapped
// executable.
func TestRemapCodePagesRescansJITCode(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	jit := k.NewProcess("jit")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])

	// Initial (clean) code.
	var a isa.Asm
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	jit.MapCode(a.Bytes())

	jit.Spawn("main", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		// "JIT" new code containing a self-prepared VMFUNC plus an
		// inadvertent encoding, then remap it executable.
		var g isa.Asm
		g.MovRI32(isa.RAX, 0)
		g.MovRI32(isa.RCX, int32(id))
		g.Vmfunc()
		g.AluRI(isa.ADD, isa.RBX, 0xD4010F)
		for i := 0; i < 8; i++ {
			g.Nop()
		}
		g.Hlt()
		if err := sb.RemapCodePages(env, g.Bytes()); err != nil {
			t.Errorf("remap: %v", err)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := jit.ReadCode(); len(rewrite.FindPattern(got)) != 0 {
		t.Fatal("VMFUNC pattern survives in remapped JIT code")
	}
	if sb.Rewrites < 2 {
		t.Fatalf("Rewrites = %d; remap should rescan", sb.Rewrites)
	}
}

// TestRemapCodePagesRequiresRegistration: unregistered processes cannot use
// the remap interface.
func TestRemapCodePagesRequiresRegistration(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	p := k.NewProcess("stranger")
	p.Spawn("m", k.Mach.Cores[0], func(env *mk.Env) {
		if err := sb.RemapCodePages(env, []byte{0x90}); err == nil {
			t.Error("unregistered remap succeeded")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
