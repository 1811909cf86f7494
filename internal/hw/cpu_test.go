package hw

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// newNativeCPU builds a 1-page-table machine running natively (no EPT).
func newNativeCPU(t *testing.T) (*Machine, *CPU, *PageTable) {
	t.Helper()
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 26})
	cpu := m.Cores[0]
	pt := NewPageTable(m.Mem)
	cpu.CR3 = pt.Root
	return m, cpu, pt
}

func TestCPUDataRoundTrip(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEWrite|PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	msg := []byte("skybridge")
	if err := cpu.WriteData(0x40_0100, msg, len(msg)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := cpu.ReadData(0x40_0100, got, len(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("read %q, want %q", got, msg)
	}
}

func TestCPUPageFaults(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	cpu.Mode = ModeUser

	var pf *PageFault
	err := cpu.ReadData(0xdead_0000, nil, 1)
	if !errors.As(err, &pf) {
		t.Fatalf("unmapped read: got %v, want PageFault", err)
	}

	// Supervisor-only page faults in user mode.
	if err := pt.Map(0x50_0000, 0x9000, PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := cpu.ReadData(0x50_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("user access to kernel page: got %v", err)
	}
	cpu.Mode = ModeKernel
	if err := cpu.ReadData(0x50_0000, nil, 1); err != nil {
		t.Fatalf("kernel access failed: %v", err)
	}

	// Read-only page rejects writes.
	if err := pt.Map(0x60_0000, 0xa000, PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.WriteData(0x60_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("write to read-only page: got %v", err)
	}

	// NX page rejects fetches.
	if err := pt.Map(0x70_0000, 0xb000, PTEUser|PTENX); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.FetchCode(0x70_0000, 4); !errors.As(err, &pf) {
		t.Fatalf("fetch from NX page: got %v", err)
	}
}

func TestCPUTLBWarming(t *testing.T) {
	_, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEWrite|PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x40_0000, nil, 1); err != nil {
		t.Fatal(err)
	}
	walks := cpu.Counters.PageWalks
	if walks != 1 {
		t.Fatalf("first access did %d walks, want 1", walks)
	}
	if err := cpu.ReadData(0x40_0800, nil, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("second access to same page walked again (TLB not used)")
	}
}

func TestCPUSyscallCosts(t *testing.T) {
	_, cpu, _ := newNativeCPU(t)
	cpu.Mode = ModeUser
	start := cpu.Clock
	cpu.Syscall()
	cpu.Swapgs()
	cpu.Swapgs()
	cpu.Sysret()
	elapsed := cpu.Clock - start
	want := CostSYSCALL + 2*CostSWAPGS + CostSYSRET
	if elapsed != want {
		t.Fatalf("null syscall cost %d, want %d", elapsed, want)
	}
	if cpu.Mode != ModeUser {
		t.Fatal("mode not restored after sysret")
	}
}

func TestCPUWriteCR3(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	pt2 := NewPageTable(m.Mem)
	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x1000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{1})
	m.Mem.Write(0x9000, []byte{2})

	cpu.PCID = 1 // address space 1's PCID
	cpu.Mode = ModeUser
	var b [1]byte
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 1 {
		t.Fatalf("as1: %v %v", err, b)
	}
	// CR3 write requires kernel mode.
	if err := cpu.WriteCR3(pt2.Root, 2); err == nil {
		t.Fatal("user-mode CR3 write allowed")
	}
	cpu.Mode = ModeKernel
	before := cpu.Clock
	if err := cpu.WriteCR3(pt2.Root, 2); err != nil {
		t.Fatal(err)
	}
	if cpu.Clock-before != CostWriteCR3 {
		t.Fatalf("CR3 write cost %d, want %d", cpu.Clock-before, CostWriteCR3)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 2 {
		t.Fatalf("as2 after CR3 switch: %v %v", err, b)
	}
	// PCID tagging: switching back must not have lost as1's TLB entry, and
	// must still translate correctly.
	cpu.Mode = ModeKernel
	if err := cpu.WriteCR3(pt.Root, 1); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	walks := cpu.Counters.PageWalks
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 1 {
		t.Fatalf("back to as1: %v %v", err, b)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("PCID-tagged entry was lost across CR3 switches")
	}
}

// installVirt places the CPU in non-root mode with an identity base EPT and
// returns (baseEPT, vmcs).
func installVirt(t *testing.T, m *Machine, cpu *CPU) (*EPT, *VMCS) {
	t.Helper()
	base := NewEPT(m.Mem)
	if err := base.MapIdentityRange(0, 1, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	vmcs := &VMCS{EPTPList: &[EPTPListSize]*EPT{base}}
	cpu.NonRoot = true
	cpu.VMCS = vmcs
	cpu.SetEPT(base)
	return base, vmcs
}

func TestCPUVMFuncSwitchesEPT(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, vmcs := installVirt(t, m, cpu)

	// Build a second "server" view: clone base and remap the client's CR3
	// page to a different frame so we can observe the switch.
	pt2 := NewPageTable(m.Mem)
	serverEPT := base.CloneShallow()
	if _, err := serverEPT.RemapGPA(pt.Root.PageBase(), HPA(pt2.Root), EPTRead|EPTWrite); err != nil {
		t.Fatal(err)
	}
	vmcs.EPTPList[1] = serverEPT

	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x1000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})

	cpu.Mode = ModeUser
	var b [1]byte
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xAA {
		t.Fatalf("client view: %v %#x", err, b[0])
	}

	// The key SkyBridge mechanism: VMFUNC from user mode, CR3 unchanged,
	// yet the *page table itself* is now the server's because the EPT
	// remaps the CR3 GPA.
	before := cpu.Clock
	if err := cpu.VMFunc(0, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Clock-before != CostVMFUNC {
		t.Fatalf("VMFUNC cost %d, want %d", cpu.Clock-before, CostVMFUNC)
	}
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xBB {
		t.Fatalf("server view after VMFUNC: %v %#x", err, b[0])
	}

	// Switch back.
	if err := cpu.VMFunc(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := cpu.ReadData(0x1000, b[:], 1); err != nil || b[0] != 0xAA {
		t.Fatalf("client view after return: %v %#x", err, b[0])
	}
}

func TestCPUVMFuncDoesNotFlushTLB(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, vmcs := installVirt(t, m, cpu)
	vmcs.EPTPList[1] = base.CloneShallow()

	if err := pt.Map(0x1000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	cpu.Mode = ModeUser
	if err := cpu.ReadData(0x1000, nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := cpu.VMFunc(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := cpu.VMFunc(0, 0); err != nil {
		t.Fatal(err)
	}
	walks := cpu.Counters.PageWalks
	if err := cpu.ReadData(0x1000, nil, 1); err != nil {
		t.Fatal(err)
	}
	if cpu.Counters.PageWalks != walks {
		t.Fatal("TLB entry lost across VMFUNC round trip (VPID tagging broken)")
	}
	if cpu.DTLB.Stats.Flushes != 0 {
		t.Fatalf("VMFUNC flushed the TLB %d times", cpu.DTLB.Stats.Flushes)
	}
}

func TestCPUVMFuncInvalidIndexExits(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return errors.New("guest killed")
	})
	if err := cpu.VMFunc(0, 7); err == nil {
		t.Fatal("invalid EPTP index did not fail")
	}
	if got == nil || got.Reason != ExitVMFuncFail || got.Index != 7 {
		t.Fatalf("exit %+v", got)
	}
	if m.VMExits[ExitVMFuncFail] != 1 {
		t.Fatal("exit not counted")
	}
}

func TestCPUVMFuncOutsideNonRootIsUD(t *testing.T) {
	_, cpu, _ := newNativeCPU(t)
	if err := cpu.VMFunc(0, 0); err == nil {
		t.Fatal("VMFUNC in root mode should #UD")
	}
}

func TestCPUEPTViolationDeliversExit(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	base, _ := installVirt(t, m, cpu)
	_ = base
	// Map a VA whose GPA lies outside the 1 GiB identity region.
	if err := pt.Map(0x1000, GPA(2<<30), PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return e
	})
	cpu.Mode = ModeUser
	err := cpu.ReadData(0x1000, nil, 1)
	if err == nil {
		t.Fatal("expected EPT violation")
	}
	if got == nil || got.Reason != ExitEPTViolation {
		t.Fatalf("exit %+v", got)
	}
	if got.Violation.GPA != GPA(2<<30) {
		t.Fatalf("violation gpa %#x", uint64(got.Violation.GPA))
	}
}

func TestCPUHypercall(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		if e.Reason == ExitVMCall {
			return e.Hypercall(c)
		}
		return e
	})
	ret := 0
	err := cpu.VMCall(func(c *CPU) error {
		if c != cpu {
			return fmt.Errorf("hypercall ran on cpu %d", c.ID)
		}
		ret = 41 + 1
		return nil
	})
	if err != nil || ret != 42 {
		t.Fatalf("hypercall: ret=%d err=%v", ret, err)
	}
	want := errors.New("refused")
	if err := cpu.VMCall(func(*CPU) error { return want }); err != want {
		t.Fatalf("hypercall error = %v, want %v", err, want)
	}
	if m.VMExits[ExitVMCall] != 2 {
		t.Fatal("VMCALL exits not counted")
	}
}

func TestCPUInterruptExitless(t *testing.T) {
	m, cpu, _ := newNativeCPU(t)
	installVirt(t, m, cpu)
	m.SetExitHandler(func(c *CPU, e *VMExit) error { return nil })
	if err := cpu.Interrupt(); err != nil {
		t.Fatal(err)
	}
	if m.TotalVMExits() != 0 {
		t.Fatal("exit-less config still exited on interrupt")
	}
	cpu.VMCS.Controls.ExitOnExternalIntr = true
	if err := cpu.Interrupt(); err != nil {
		t.Fatal(err)
	}
	if m.VMExits[ExitExternalInterrupt] != 1 {
		t.Fatal("trap-everything config did not exit on interrupt")
	}
}

func TestMachineIPI(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 24})
	before := m.Cores[0].Clock
	m.SendIPI(0, 1)
	if m.Cores[0].Clock-before != CostIPI {
		t.Fatalf("IPI cost %d, want %d", m.Cores[0].Clock-before, CostIPI)
	}
	if m.IPICount != 1 {
		t.Fatal("IPI not counted")
	}
}

// TestMachineMemBytesBound: the cache tags address memories below 2^38
// bytes, so NewMachine rejects 2^38 and builds the largest page-aligned
// size below it, whose last line misses cold like any other.
func TestMachineMemBytesBound(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewMachine accepted MemBytes = 2^38")
			}
		}()
		NewMachine(MachineConfig{Cores: 1, MemBytes: 1 << 38})
	}()
	m := NewMachine(MachineConfig{Cores: 1, MemBytes: 1<<38 - PageSize})
	l1d := m.Cores[0].L1D
	l1d.Access(HPA(m.Mem.Size()-LineSize), false)
	if l1d.Stats.Misses != 1 {
		t.Fatalf("cold access to the last line: %+v, want a miss", l1d.Stats)
	}
}

func TestCPUCodeFetchReturnsBytes(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	code := []byte{0x0f, 0x01, 0xd4, 0x90} // vmfunc; nop
	m.Mem.Write(0x8000, code)
	cpu.Mode = ModeUser
	got, err := cpu.FetchCode(0x40_0000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, code) {
		t.Fatalf("fetched %x, want %x", got, code)
	}
	if cpu.Counters.CodeFetches == 0 {
		t.Fatal("code fetch not counted")
	}
}

func TestCPUDataCrossPage(t *testing.T) {
	m, cpu, pt := newNativeCPU(t)
	if err := pt.MapRange(0x40_0000, 0x8000, 2, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	_ = m
	cpu.Mode = ModeUser
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	va := VA(0x40_0000 + PageSize - 100)
	if err := cpu.WriteData(va, data, len(data)); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := cpu.ReadData(va, got, len(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-page data mismatch")
	}
}

// Walk-after-mutation tests. Each reads through a mapping, changes the
// translation state behind it, then reads again where no TLB entry can
// answer, and checks the bytes or the fault the fresh walk produces. (The
// TestWalkMemo* names date from a host-side walk memo that once sat in
// front of walkGuest; the scenarios outlived it.)

// newWalkMachine builds a 2-core machine with a tiny DTLB and one page
// table loaded on both cores, running natively in user mode.
func newWalkMachine(t *testing.T) (*Machine, *PageTable) {
	t.Helper()
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 26, DTLBEntries: 4})
	pt := NewPageTable(m.Mem)
	for _, cpu := range m.Cores {
		cpu.CR3 = pt.Root
		cpu.Mode = ModeUser
	}
	return m, pt
}

// readByte reads the byte at va on cpu, failing the test on a fault.
func readByte(t *testing.T, cpu *CPU, va VA) byte {
	t.Helper()
	var b [1]byte
	if err := cpu.ReadData(va, b[:], 1); err != nil {
		t.Fatalf("cpu%d read of %#x: %v", cpu.ID, uint64(va), err)
	}
	return b[0]
}

// TestWalkMemoHitAcrossCores: a walk on core 0 fills only core 0's TLB;
// core 1 walks the same table itself and reads the same bytes.
func TestWalkMemoHitAcrossCores(t *testing.T) {
	m, pt := newWalkMachine(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	msg := []byte("walked")
	m.Mem.Write(0x8000, msg)

	c0, c1 := m.Cores[0], m.Cores[1]
	if err := c0.ReadData(0x40_0000, nil, 1); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := c1.ReadData(0x40_0000, got, len(got)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("core 1 read %q, want %q", got, msg)
	}
	if c0.Counters.PageWalks != 1 || c1.Counters.PageWalks != 1 {
		t.Fatalf("page walks: core 0 %d, core 1 %d, want 1 each",
			c0.Counters.PageWalks, c1.Counters.PageWalks)
	}
}

// TestWalkMemoStalePTEEdit: after a PTE remap, a TLB-cold core reads the
// new frame.
func TestWalkMemoStalePTEEdit(t *testing.T) {
	m, pt := newWalkMachine(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})

	c0, c1 := m.Cores[0], m.Cores[1]
	if b := readByte(t, c0, 0x40_0000); b != 0xAA {
		t.Fatalf("before remap: got %#x, want 0xAA", b)
	}
	if err := pt.Map(0x40_0000, 0x9000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if b := readByte(t, c1, 0x40_0000); b != 0xBB {
		t.Fatalf("after remap: got %#x, want 0xBB", b)
	}
}

// TestWalkMemoCR3Reload: reloading CR3 with a second table (fresh PCID, so
// the TLB cannot answer) resolves through that table; reloading the first
// table after editing it sees the edit.
func TestWalkMemoCR3Reload(t *testing.T) {
	m, pt1 := newWalkMachine(t)
	pt2 := NewPageTable(m.Mem)
	if err := pt1.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := pt2.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xA1})
	m.Mem.Write(0x9000, []byte{0xB2})

	c0 := m.Cores[0]
	load := func(root GPA, pcid uint16) {
		t.Helper()
		c0.Mode = ModeKernel
		if err := c0.WriteCR3(root, pcid); err != nil {
			t.Fatal(err)
		}
		c0.Mode = ModeUser
	}
	if b := readByte(t, c0, 0x40_0000); b != 0xA1 {
		t.Fatalf("under pt1: got %#x, want 0xA1", b)
	}
	load(pt2.Root, 2)
	if b := readByte(t, c0, 0x40_0000); b != 0xB2 {
		t.Fatalf("after CR3 switch to pt2: got %#x, want 0xB2", b)
	}
	load(pt1.Root, 3)
	if b := readByte(t, c0, 0x40_0000); b != 0xA1 {
		t.Fatalf("back on pt1: got %#x, want 0xA1", b)
	}
	if err := pt1.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	load(pt1.Root, 4)
	if b := readByte(t, c0, 0x40_0000); b != 0xB2 {
		t.Fatalf("after pt1 edit: got %#x, want 0xB2", b)
	}
}

// TestWalkMemoTLBShootdown: a stale TLB entry keeps serving the old frame
// until it is flushed; after FlushAll, and again after FlushTag, the next
// access walks and reads the current mapping.
func TestWalkMemoTLBShootdown(t *testing.T) {
	m, pt := newWalkMachine(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})

	c0 := m.Cores[0]
	if b := readByte(t, c0, 0x40_0000); b != 0xAA {
		t.Fatalf("first read: got %#x, want 0xAA", b)
	}
	if err := pt.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if b := readByte(t, c0, 0x40_0000); b != 0xAA {
		t.Fatalf("before shootdown: got %#x, want the TLB's stale 0xAA", b)
	}
	walks := c0.Counters.PageWalks
	c0.DTLB.FlushAll()
	if b := readByte(t, c0, 0x40_0000); b != 0xBB {
		t.Fatalf("after FlushAll: got %#x, want 0xBB", b)
	}
	if c0.Counters.PageWalks != walks+1 {
		t.Fatalf("FlushAll: %d walks, want 1", c0.Counters.PageWalks-walks)
	}

	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	c0.DTLB.FlushTag(c0.tlbTag())
	if b := readByte(t, c0, 0x40_0000); b != 0xAA {
		t.Fatalf("after FlushTag: got %#x, want 0xAA", b)
	}
}

// TestWalkMemoEPTPermissionDowngrade: after an EPT downgrade of the data
// frame to read-only and a TLB flush, reads still succeed and a write
// raises an EPT violation.
func TestWalkMemoEPTPermissionDowngrade(t *testing.T) {
	m, pt := newWalkMachine(t)
	cpu := m.Cores[0]
	ept, _ := installVirt(t, m, cpu)
	var got *VMExit
	m.SetExitHandler(func(c *CPU, e *VMExit) error {
		got = e
		return e
	})
	if err := pt.Map(0x40_0000, 0x8000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := cpu.WriteData(0x40_0000, []byte{1}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := ept.RemapGPA(0x8000, 0x8000, EPTRead); err != nil {
		t.Fatal(err)
	}
	cpu.DTLB.FlushAll()
	if b := readByte(t, cpu, 0x40_0000); b != 1 {
		t.Fatalf("read after downgrade: got %d, want 1", b)
	}
	if got != nil {
		t.Fatalf("read after downgrade exited: %+v", got)
	}
	cpu.DTLB.FlushAll()
	err := cpu.WriteData(0x40_0000, []byte{2}, 1)
	if err == nil {
		t.Fatal("write after EPT downgrade succeeded")
	}
	if got == nil || got.Reason != ExitEPTViolation || got.Violation.GPA != 0x8000 {
		t.Fatalf("exit %+v, err %v", got, err)
	}
}

// TestWalkMemoFrameRecycle: a page-table root frame that is freed and
// handed out again comes back zeroed; a TLB-cold core walking it faults,
// and once a new table is built in it, reads the new mapping.
func TestWalkMemoFrameRecycle(t *testing.T) {
	m, pt := newWalkMachine(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(0x8000, []byte{0xAA})
	m.Mem.Write(0x9000, []byte{0xBB})
	c0, c1 := m.Cores[0], m.Cores[1]
	if b := readByte(t, c0, 0x40_0000); b != 0xAA {
		t.Fatalf("first read: got %#x, want 0xAA", b)
	}

	m.Mem.FreeFrame(HPA(pt.Root))
	pt2 := NewPageTable(m.Mem) // reuses the freed frame as its root
	if pt2.Root != pt.Root {
		t.Fatalf("recycled root %#x, want %#x", uint64(pt2.Root), uint64(pt.Root))
	}
	var pf *PageFault
	if err := c1.ReadData(0x40_0000, nil, 1); !errors.As(err, &pf) {
		t.Fatalf("read through zeroed root: got %v, want PageFault", err)
	}
	if err := pt2.Map(0x40_0000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if b := readByte(t, c1, 0x40_0000); b != 0xBB {
		t.Fatalf("read through rebuilt root: got %#x, want 0xBB", b)
	}
}

// TestWalkMemoPermFallback: a TLB-cold core writing a read-only page walks
// and takes the page fault, while its reads succeed.
func TestWalkMemoPermFallback(t *testing.T) {
	m, pt := newWalkMachine(t)
	if err := pt.Map(0x40_0000, 0x8000, PTEUser); err != nil {
		t.Fatal(err)
	}
	c0, c1 := m.Cores[0], m.Cores[1]
	if err := c0.ReadData(0x40_0000, nil, 1); err != nil {
		t.Fatal(err)
	}
	var pf *PageFault
	if err := c1.WriteData(0x40_0000, []byte{1}, 1); !errors.As(err, &pf) {
		t.Fatalf("write through read-only mapping: got %v, want PageFault", err)
	}
	if err := c1.ReadData(0x40_0000, nil, 1); err != nil {
		t.Fatal(err)
	}
}
