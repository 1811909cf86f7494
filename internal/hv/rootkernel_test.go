package hv

import (
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

func bootWorld(t *testing.T, cfg Config) (*sim.Engine, *mk.Kernel, *Rootkernel) {
	t.Helper()
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 4, MemBytes: 4 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := Boot(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, k, rk
}

func TestBootDowngradesToNonRoot(t *testing.T) {
	_, k, rk := bootWorld(t, Config{})
	for _, cpu := range k.Mach.Cores {
		if !cpu.NonRoot {
			t.Fatal("core not downgraded to non-root mode")
		}
		if cpu.VMCS == nil || cpu.EPT() != rk.BaseEPT {
			t.Fatal("VMCS/base EPT not installed")
		}
	}
}

func TestBaseEPTIdentityMapsGuestMemory(t *testing.T) {
	_, _, rk := bootWorld(t, Config{})
	lo := rk.resLo
	for _, gpa := range []hw.GPA{0, 0x1000, hw.GPA(uint64(lo)) - hw.PageSize, 1 << 30} {
		hpa, v := rk.BaseEPT.Translate(gpa, hw.AccessWrite)
		if v != nil {
			t.Fatalf("gpa %#x: %v", uint64(gpa), v)
		}
		if uint64(hpa) != uint64(gpa) {
			t.Fatalf("gpa %#x mapped to %#x", uint64(gpa), uint64(hpa))
		}
	}
}

func TestReservedRegionNotGuestAccessible(t *testing.T) {
	_, _, rk := bootWorld(t, Config{})
	lo, hi := rk.resLo, rk.resHi
	for _, gpa := range []hw.GPA{hw.GPA(lo), hw.GPA(lo) + hw.PageSize, hw.GPA(hi) - hw.PageSize} {
		if _, v := rk.BaseEPT.Translate(gpa, hw.AccessRead); v == nil {
			t.Fatalf("rootkernel memory at %#x is guest-visible", uint64(gpa))
		}
	}
}

func TestGuestRunsWithZeroVMExits(t *testing.T) {
	// Table 5's key claim: a workload that does not use SkyBridge takes no
	// VM exits under the Rootkernel.
	eng, k, _ := bootWorld(t, Config{})
	p := k.NewProcess("app")
	buf := p.Alloc(64 * hw.PageSize)
	p.Spawn("w", k.Mach.Cores[0], func(env *mk.Env) {
		data := make([]byte, 4096)
		for i := 0; i < 100; i++ {
			env.Write(buf+hw.VA(i%64)*hw.PageSize, data, len(data))
			env.Compute(1000)
		}
	})
	// Interrupts are delivered without exits in the exit-less config.
	k.Mach.Cores[1].Interrupt()
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if n := k.Mach.TotalVMExits(); n != 0 {
		t.Fatalf("%d VM exits during plain guest execution, want 0 (%v)", n, k.Mach.VMExits)
	}
}

func TestTrapAllConfigExitsOnInterrupt(t *testing.T) {
	_, k, _ := bootWorld(t, Config{TrapAll: true})
	if err := k.Mach.Cores[0].Interrupt(); err != nil {
		t.Fatal(err)
	}
	if k.Mach.VMExits[hw.ExitExternalInterrupt] != 1 {
		t.Fatal("trap-all config did not exit on external interrupt")
	}
}

func TestRegisterAndBind(t *testing.T) {
	_, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	server := k.NewProcess("server")
	cpu := k.Mach.Cores[0]

	idx, err := rk.RegisterServer(cpu, server)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("first server index = %d, want 1", idx)
	}
	pages, err := rk.Bind(cpu, client, server, idx)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's claim: "only four pages ... are modified".
	if pages != 4 {
		t.Fatalf("bind modified %d EPT pages, want 4", pages)
	}
	if err := rk.InstallFor(cpu, client); err != nil {
		t.Fatal(err)
	}

	// The client's CR3 GPA translates to the server's page-table root in
	// the bound EPT.
	serverView := cpu.VMCS.EPTPList[idx]
	if serverView == nil {
		t.Fatal("bound EPT not in client's EPTP list")
	}
	hpa, v := serverView.Translate(client.PT.Root.PageBase(), hw.AccessRead)
	if v != nil || hpa != hw.HPA(server.PT.Root) {
		t.Fatalf("CR3 remap wrong: hpa=%#x v=%v want %#x", uint64(hpa), v, uint64(server.PT.Root))
	}
	// And the client's own slot-0 view leaves it unchanged.
	hpa, v = cpu.VMCS.EPTPList[0].Translate(client.PT.Root.PageBase(), hw.AccessRead)
	if v != nil || hpa != hw.HPA(client.PT.Root) {
		t.Fatalf("client self view corrupted: hpa=%#x v=%v", uint64(hpa), v)
	}
}

func TestVMFuncSwitchesToServerPageTable(t *testing.T) {
	// End-to-end mechanism check at the hardware level: after binding,
	// a user-mode VMFUNC makes the same VA translate through the server's
	// page table without any CR3 write.
	eng, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	server := k.NewProcess("server")
	cpu := k.Mach.Cores[0]

	va := hw.VA(0x5000_0000)
	cFrame := k.Mach.Mem.MustAllocFrame()
	sFrame := k.Mach.Mem.MustAllocFrame()
	if err := client.PT.Map(va, hw.GPA(cFrame), hw.PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := server.PT.Map(va, hw.GPA(sFrame), hw.PTEUser); err != nil {
		t.Fatal(err)
	}
	k.Mach.Mem.Write(cFrame, []byte{0xCC})
	k.Mach.Mem.Write(sFrame, []byte{0x55})

	idx, err := rk.RegisterServer(cpu, server)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rk.Bind(cpu, client, server, idx); err != nil {
		t.Fatal(err)
	}

	client.Spawn("cli", cpu, func(env *mk.Env) {
		var b [1]byte
		env.Read(va, b[:], 1)
		if b[0] != 0xCC {
			t.Errorf("client view: %#x", b[0])
		}
		// User-mode EPTP switch.
		if err := cpu.VMFunc(0, idx); err != nil {
			t.Errorf("vmfunc: %v", err)
			return
		}
		if err := cpu.ReadData(va, b[:], 1); err != nil {
			t.Errorf("read in server view: %v", err)
			return
		}
		if b[0] != 0x55 {
			t.Errorf("server view: %#x", b[0])
		}
		if err := cpu.VMFunc(0, 0); err != nil {
			t.Errorf("vmfunc back: %v", err)
		}
		env.Read(va, b[:], 1)
		if b[0] != 0xCC {
			t.Errorf("client view after return: %#x", b[0])
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnboundProcessCannotVMFunc(t *testing.T) {
	// A process with no bindings gets a trivial EPTP list: every non-zero
	// index faults to the Rootkernel, which kills the access.
	eng, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	server := k.NewProcess("server")
	evil := k.NewProcess("evil")
	cpu := k.Mach.Cores[0]

	idx, err := rk.RegisterServer(cpu, server)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rk.Bind(cpu, client, server, idx); err != nil {
		t.Fatal(err)
	}

	evil.Spawn("attacker", cpu, func(env *mk.Env) {
		// env.enter -> context switch -> the Rootkernel installs evil's
		// trivial list (bindings exist machine-wide).
		if err := cpu.VMFunc(0, idx); err == nil {
			t.Error("unbound process VMFUNCed into a server EPT")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Mach.VMExits[hw.ExitVMFuncFail] == 0 {
		t.Fatal("VMFUNC abuse did not exit to the Rootkernel")
	}
}

func TestVirtualServerSpaceExhaustion(t *testing.T) {
	_, k, rk := bootWorld(t, Config{})
	cpu := k.Mach.Cores[0]
	p := k.NewProcess("s")
	for i := 1; i < MaxVirtualServers; i++ {
		if _, err := rk.RegisterServer(cpu, p); err != nil {
			t.Fatalf("registration %d failed: %v", i, err)
		}
	}
	if _, err := rk.RegisterServer(cpu, p); err == nil {
		t.Fatalf("registration beyond %d virtual servers succeeded", MaxVirtualServers-1)
	}
}

// TestEPTPSlotLRU exercises the §10 extension: more bindings than the
// 512-entry hardware list, with transparent LRU slot eviction.
func TestEPTPSlotLRU(t *testing.T) {
	eng, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	cpu := k.Mach.Cores[0]

	// Register 600 servers and bind the client to all of them — more than
	// the hardware list can hold.
	const nservers = 600
	ids := make([]int, nservers)
	procs := make([]*mk.Process, nservers)
	for i := range ids {
		procs[i] = k.NewProcess("srv")
		id, err := rk.RegisterServer(cpu, procs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := rk.Bind(cpu, client, procs[i], id); err != nil {
			t.Fatalf("bind %d: %v", i, err)
		}
	}
	if rk.SlotEvictions == 0 {
		t.Fatal("600 eager binds produced no evictions from the 511-slot cache")
	}

	client.Spawn("cli", cpu, func(env *mk.Env) {
		// Call every server once: the evicted majority must be transparently
		// reloaded, and each reloaded view must translate the client's CR3
		// to the right server's page table.
		for i, id := range ids {
			slot, err := rk.ResolveSlot(cpu, client, id, []int{0})
			if err != nil {
				t.Fatalf("resolve %d: %v", i, err)
				return
			}
			if err := cpu.VMFunc(0, slot); err != nil {
				t.Fatalf("vmfunc to %d (slot %d): %v", id, slot, err)
				return
			}
			hpa, v := cpu.EPT().Translate(client.PT.Root.PageBase(), hw.AccessRead)
			if v != nil || hpa != hw.HPA(procs[i].PT.Root) {
				t.Fatalf("server %d: CR3 maps to %#x, want %#x", id, uint64(hpa), uint64(procs[i].PT.Root))
				return
			}
			if err := cpu.VMFunc(0, 0); err != nil {
				t.Fatal(err)
				return
			}
		}
		// A hot server stays resident: repeated calls take the user-level
		// hit path with no further loads.
		hot := ids[len(ids)-1]
		loadsBefore := rk.SlotLoads
		for i := 0; i < 50; i++ {
			if _, err := rk.ResolveSlot(cpu, client, hot, []int{0}); err != nil {
				t.Fatal(err)
				return
			}
		}
		if rk.SlotLoads != loadsBefore {
			t.Errorf("hot server reloaded %d times; expected pure hits", rk.SlotLoads-loadsBefore)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// One process on two cores: a miss on core 0 loads the long-evicted
	// first server into an evicted slot, and the thread on core 1, which
	// installed the list before the load, reaches that server through the
	// slot without a reinstall.
	cpu1 := k.Mach.Cores[1]
	client.Spawn("cli1", cpu1, func(env *mk.Env) { env.Enter() })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var slot int
	loads, evictions := rk.SlotLoads, rk.SlotEvictions
	client.Spawn("cli0", cpu, func(env *mk.Env) {
		var err error
		if slot, err = rk.ResolveSlot(cpu, client, ids[0], []int{0}); err != nil {
			t.Errorf("resolve on core 0: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rk.SlotLoads != loads+1 || rk.SlotEvictions != evictions+1 {
		t.Fatalf("resolve on core 0: loads +%d, evictions +%d; want a load into an evicted slot",
			rk.SlotLoads-loads, rk.SlotEvictions-evictions)
	}
	installs := rk.ListInstall
	client.Spawn("cli1", cpu1, func(env *mk.Env) {
		env.Enter()
		if err := cpu1.VMFunc(0, slot); err != nil {
			t.Errorf("core 1 vmfunc to slot %d: %v", slot, err)
			return
		}
		hpa, v := cpu1.EPT().Translate(client.PT.Root.PageBase(), hw.AccessRead)
		if v != nil || hpa != hw.HPA(procs[0].PT.Root) {
			t.Errorf("core 1 slot %d: CR3 maps to %#x, want %#x", slot, uint64(hpa), uint64(procs[0].PT.Root))
		}
		cpu1.VMFunc(0, 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rk.ListInstall != installs {
		t.Errorf("core 1 reinstalled the list %d times", rk.ListInstall-installs)
	}
}

// TestEPTPSlotPinning: pinned slots (an active nested call chain) survive
// eviction pressure.
func TestEPTPSlotPinning(t *testing.T) {
	eng, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	cpu := k.Mach.Cores[0]

	const nservers = 520 // enough to force evictions
	ids := make([]int, nservers)
	for i := range ids {
		p := k.NewProcess("srv")
		id, err := rk.RegisterServer(cpu, p)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if _, err := rk.Bind(cpu, client, p, id); err != nil {
			t.Fatal(err)
		}
	}
	client.Spawn("cli", cpu, func(env *mk.Env) {
		// Pin the slot of server ids[0] (as if a nested chain holds it),
		// then churn through every other server; the pinned slot must keep
		// its binding.
		pinnedSlot, err := rk.ResolveSlot(cpu, client, ids[0], []int{0})
		if err != nil {
			t.Fatal(err)
			return
		}
		pins := []int{0, pinnedSlot}
		for _, id := range ids[1:] {
			if _, err := rk.ResolveSlot(cpu, client, id, pins); err != nil {
				t.Fatal(err)
				return
			}
		}
		loads := rk.SlotLoads
		got, err := rk.ResolveSlot(cpu, client, ids[0], pins)
		if err != nil {
			t.Fatal(err)
			return
		}
		if got != pinnedSlot || rk.SlotLoads != loads {
			t.Errorf("pinned slot was evicted (slot %d -> %d, loads %d -> %d)",
				pinnedSlot, got, loads, rk.SlotLoads)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSmallPageEPTAblationHasMoreTables(t *testing.T) {
	_, _, big := bootWorld(t, Config{})
	_, _, small := bootWorld(t, Config{SmallPageEPT: true})
	if small.BaseEPT.OwnedPages <= big.BaseEPT.OwnedPages*10 {
		t.Fatalf("small-page EPT owns %d pages vs hugepage %d; expected orders of magnitude more",
			small.BaseEPT.OwnedPages, big.BaseEPT.OwnedPages)
	}
}

func TestContextSwitchInstallsList(t *testing.T) {
	eng, k, rk := bootWorld(t, Config{})
	client := k.NewProcess("client")
	server := k.NewProcess("server")
	other := k.NewProcess("other")
	cpu := k.Mach.Cores[0]

	idx, _ := rk.RegisterServer(cpu, server)
	if _, err := rk.Bind(cpu, client, server, idx); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{}, 2)
	_ = done
	other.Spawn("o", cpu, func(env *mk.Env) {
		env.Compute(10)
	})
	client.Spawn("c", cpu, func(env *mk.Env) {
		env.Compute(100)
		// After running "other", coming back to client must reinstall the
		// client's list so its VMFUNC works.
		env.Read(client.Alloc(hw.PageSize), nil, 1)
		if err := cpu.VMFunc(0, idx); err != nil {
			t.Errorf("client VMFUNC after context switches: %v", err)
			return
		}
		cpu.VMFunc(0, 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rk.ListInstall == 0 {
		t.Fatal("no EPTP list installs recorded")
	}
}

// TestCPUIDExitsUnderRootkernel: CPUID unconditionally exits in non-root
// mode (§4.1), and the Rootkernel emulates it and resumes the guest. Run
// natively, it takes no exit at all.
func TestCPUIDExitsUnderRootkernel(t *testing.T) {
	_, k, _ := bootWorld(t, Config{})
	cpu := k.Mach.Cores[0]
	if err := cpu.CPUID(); err != nil {
		t.Fatalf("CPUID under the Rootkernel: %v", err)
	}
	if n, total := k.Mach.VMExits[hw.ExitCPUID], k.Mach.TotalVMExits(); n != 1 || total != 1 {
		t.Errorf("CPUID exits = %d of %d total, want exactly 1 of 1", n, total)
	}

	native := hw.NewMachine(hw.MachineConfig{Cores: 1, MemBytes: 1 << 26})
	if err := native.Cores[0].CPUID(); err != nil {
		t.Fatalf("native CPUID: %v", err)
	}
	if total := native.TotalVMExits(); total != 0 {
		t.Errorf("native CPUID took %d VM exits, want 0", total)
	}
}
