package isa

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// sbState captures every architecturally visible output of a run.
type sbState struct {
	Regs           [16]uint64
	RIP            uint64
	ZF, SF, CF, OF bool
	VMFunc, Sys    int
	Halted         bool
	Steps          int
	Err            string
	Data, Stack    []byte
}

// loopProgram assembles a sum-1..n loop, which re-executes the same RIPs
// many times.
func loopProgram(n int32) []byte {
	var a Asm
	a.MovRI32(RAX, 0)
	a.MovRI32(RCX, n)
	top := a.Len()
	a.AluRR(ADD, RAX, RCX)
	a.AluRI8(SUB, RCX, 1)
	body := a.Len()
	a.Jcc(CondNE, 0)
	rel := int32(top - (body + 6))
	b := a.Bytes()
	b[body+2] = byte(rel)
	b[body+3] = byte(rel >> 8)
	b[body+4] = byte(rel >> 16)
	b[body+5] = byte(rel >> 24)
	a.Hlt()
	return a.Bytes()
}

// runSBProgram executes code with the given toggle and returns the final
// state, including copies of the data and stack regions.
func runSBProgram(t *testing.T, code []byte, superblock bool, maxSteps int) (sbState, *Interp) {
	t.Helper()
	prev := SetSuperblock(superblock)
	defer SetSuperblock(prev)
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i * 7)
	}
	stack := make([]byte, 512)
	ip := NewInterp()
	ip.AddRegion(0x400000, append([]byte(nil), code...))
	ip.AddRegion(0x600000, data)
	ip.AddRegion(0x7ff000, stack)
	ip.RIP = 0x400000
	ip.Regs[RBP] = 0x600000
	ip.Regs[RSP] = 0x7ff000 + 256
	err := ip.Run(maxSteps)
	st := sbState{
		Regs: ip.Regs, RIP: ip.RIP,
		ZF: ip.ZF, SF: ip.SF, CF: ip.CF, OF: ip.OF,
		VMFunc: ip.VMFuncCount, Sys: ip.SyscallCount,
		Halted: ip.Halted, Steps: ip.Steps,
		Data: data, Stack: stack,
	}
	if err != nil {
		st.Err = err.Error()
	}
	return st, ip
}

// diffState fails the test if two runs diverged anywhere.
func diffState(t *testing.T, on, off sbState) {
	t.Helper()
	if on.Regs != off.Regs {
		t.Errorf("regs diverged:\n on: %#x\noff: %#x", on.Regs, off.Regs)
	}
	if on.RIP != off.RIP || on.Steps != off.Steps || on.Halted != off.Halted {
		t.Errorf("control diverged: on rip=%#x steps=%d halted=%v, off rip=%#x steps=%d halted=%v",
			on.RIP, on.Steps, on.Halted, off.RIP, off.Steps, off.Halted)
	}
	if on.ZF != off.ZF || on.SF != off.SF || on.CF != off.CF || on.OF != off.OF {
		t.Errorf("flags diverged: on ZSCO=%v%v%v%v off=%v%v%v%v",
			on.ZF, on.SF, on.CF, on.OF, off.ZF, off.SF, off.CF, off.OF)
	}
	if on.VMFunc != off.VMFunc || on.Sys != off.Sys {
		t.Errorf("counters diverged: on vmfunc=%d sys=%d, off vmfunc=%d sys=%d",
			on.VMFunc, on.Sys, off.VMFunc, off.Sys)
	}
	if on.Err != off.Err {
		t.Errorf("errors diverged:\n on: %q\noff: %q", on.Err, off.Err)
	}
	if string(on.Data) != string(off.Data) {
		t.Error("data region diverged")
	}
	if string(on.Stack) != string(off.Stack) {
		t.Error("stack region diverged")
	}
}

// randomProgram emits a terminating program mixing straight-line work,
// memory traffic through RBP, balanced push/pop, forward branches, counted
// loops, and VMFUNC/SYSCALL terminators.
func randomProgram(rng *rand.Rand) []byte {
	var a Asm
	gpr := []Reg{RAX, RBX, RCX, RDX, RSI, RDI, R8, R9, R10, R11}
	alu := []Op{ADD, SUB, AND, OR, XOR, CMP}
	mem := func() Mem { return Mem{Base: RBP, Index: NoReg, Disp: int32(rng.Intn(31)) * 8} }
	for i := range gpr {
		a.MovRI64(gpr[i], rng.Int63())
	}
	n := 20 + rng.Intn(120)
	depth := 0
	for i := 0; i < n; i++ {
		switch rng.Intn(14) {
		case 0:
			a.Nop()
		case 1:
			a.MovRR(gpr[rng.Intn(len(gpr))], gpr[rng.Intn(len(gpr))])
		case 2:
			a.MovRI64(gpr[rng.Intn(len(gpr))], rng.Int63()-rng.Int63())
		case 3:
			a.MovRI32(gpr[rng.Intn(len(gpr))], int32(rng.Uint32()))
		case 4:
			a.MovRM(gpr[rng.Intn(len(gpr))], mem())
		case 5:
			a.MovMR(mem(), gpr[rng.Intn(len(gpr))])
		case 6:
			a.AluRR(alu[rng.Intn(len(alu))], gpr[rng.Intn(len(gpr))], gpr[rng.Intn(len(gpr))])
		case 7:
			a.Alu32RR(alu[rng.Intn(len(alu))], gpr[rng.Intn(len(gpr))], gpr[rng.Intn(len(gpr))])
		case 8:
			a.AluRI(alu[rng.Intn(len(alu))], gpr[rng.Intn(len(gpr))], int32(rng.Uint32()))
		case 9:
			a.AluMR(alu[rng.Intn(len(alu))], mem(), gpr[rng.Intn(len(gpr))])
		case 10:
			a.Imul2(gpr[rng.Intn(len(gpr))], gpr[rng.Intn(len(gpr))])
		case 11:
			if rng.Intn(2) == 0 {
				a.Lea(gpr[rng.Intn(len(gpr))], mem())
			} else {
				a.TestRR(gpr[rng.Intn(len(gpr))], gpr[rng.Intn(len(gpr))])
			}
		case 12:
			if depth < 8 && rng.Intn(2) == 0 {
				a.PushReg(gpr[rng.Intn(len(gpr))])
				depth++
			} else if depth > 0 {
				a.PopReg(gpr[rng.Intn(len(gpr))])
				depth--
			} else {
				a.Vmfunc()
			}
		case 13:
			// Forward conditional skip over exactly one instruction.
			var skip Asm
			skip.MovRI32(gpr[rng.Intn(len(gpr))], int32(rng.Uint32()))
			conds := []Cond{CondE, CondNE, CondB, CondAE, CondL, CondGE, CondS, CondNS}
			a.Jcc(conds[rng.Intn(len(conds))], int32(skip.Len()))
			a.emit(skip.Bytes()...)
		}
		if rng.Intn(17) == 0 {
			a.Syscall()
		}
	}
	for ; depth > 0; depth-- {
		a.PopReg(gpr[rng.Intn(len(gpr))])
	}
	// Counted loop: sum into RAX, decrement RCX until zero.
	a.MovRI32(RAX, 0)
	a.MovRI32(RCX, int32(3+rng.Intn(40)))
	top := a.Len()
	a.AluRR(ADD, RAX, RCX)
	a.AluRI8(SUB, RCX, 1)
	a.Jcc(CondNE, int32(top-(a.Len()+6)))
	a.Hlt()
	return a.Bytes()
}

// TestSuperblockLockstepRandomPrograms runs random programs with
// superblocks on and off and requires every architecturally visible
// outcome — registers, flags, RIP, step count, memory, errors — to match.
func TestSuperblockLockstepRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5B))
	blocksUsed := false
	for trial := 0; trial < 200; trial++ {
		code := randomProgram(rng)
		on, ipOn := runSBProgram(t, code, true, 100000)
		off, ipOff := runSBProgram(t, code, false, 100000)
		diffState(t, on, off)
		if t.Failed() {
			t.Fatalf("trial %d diverged (program %d bytes)", trial, len(code))
		}
		if ipOn.SBStats.Execs > 0 {
			blocksUsed = true
		}
		if ipOff.SBStats.Execs != 0 {
			t.Fatalf("superblock-off run dispatched %d blocks", ipOff.SBStats.Execs)
		}
	}
	if !blocksUsed {
		t.Fatal("no trial dispatched a superblock")
	}
}

// TestSuperblockMaxStepsExact: the step limit must trip at the same step
// count, RIP, and error text whether or not the limit lands mid-block.
func TestSuperblockMaxStepsExact(t *testing.T) {
	code := loopProgram(1000)
	for _, maxSteps := range []int{1, 2, 3, 5, 17, 100, 1001} {
		on, _ := runSBProgram(t, code, true, maxSteps)
		off, _ := runSBProgram(t, code, false, maxSteps)
		diffState(t, on, off)
		if t.Failed() {
			t.Fatalf("maxSteps=%d diverged", maxSteps)
		}
		if on.Err == "" {
			t.Fatalf("maxSteps=%d: expected step-limit error", maxSteps)
		}
	}
}

// smcProgram builds a program whose third instruction stores new code
// bytes over its own fifth instruction — all inside one straight-line
// superblock. The overwritten instruction originally loads RCX=1; the
// stored bytes change it to load newVal.
func smcProgram(newVal int32) []byte {
	var patch Asm
	patch.MovRI32(RCX, newVal)
	patch.Nop() // pad the stored quadword to 8 bytes
	for patch.Len() < 8 {
		patch.Nop()
	}
	newBytes := binary.LittleEndian.Uint64(patch.Bytes()[:8])

	build := func(target uint64) []byte {
		var a Asm
		a.MovRI64(RBX, int64(target))
		a.MovRI64(RAX, int64(newBytes))
		a.MovMR(Mem{Base: RBX, Index: NoReg}, RAX)
		a.MovRI32(RCX, 1) // the overwritten instruction
		a.Nop()
		a.Nop()
		a.Nop()
		a.Hlt()
		return a.Bytes()
	}
	// First pass with a dummy target to learn the overwritten
	// instruction's offset (immediate values do not change encoding
	// lengths), then rebuild with the real address.
	var a Asm
	a.MovRI64(RBX, 0)
	a.MovRI64(RAX, 0)
	a.MovMR(Mem{Base: RBX, Index: NoReg}, RAX)
	targetOff := a.Len()
	return build(0x400000 + uint64(targetOff))
}

// TestSuperblockSelfModifyingBail: a store over the block's own upcoming
// bytes must bail out of the fused run and execute the freshly written
// instruction, exactly like per-step execution does.
func TestSuperblockSelfModifyingBail(t *testing.T) {
	code := smcProgram(2)
	on, ipOn := runSBProgram(t, code, true, 1000)
	off, _ := runSBProgram(t, code, false, 1000)
	diffState(t, on, off)
	if on.Regs[RCX] != 2 {
		t.Fatalf("rcx = %d, want 2 (stale fused instruction executed)", on.Regs[RCX])
	}
	if ipOn.SBStats.Bails == 0 {
		t.Fatal("self-modifying store did not bail out of the superblock")
	}
}

// TestSuperblockRewriteBetweenDispatches patches code bytes in place after
// a block is cached; the next dispatch must revalidate, drop the stale
// block, and execute the new bytes.
func TestSuperblockRewriteBetweenDispatches(t *testing.T) {
	prev := SetSuperblock(true)
	defer SetSuperblock(prev)
	prog := func(v int32) []byte {
		var a Asm
		a.MovRI32(RAX, v)
		a.Nop()
		a.Hlt()
		return a.Bytes()
	}
	code := prog(1)
	ip := NewInterp()
	ip.AddRegion(0x400000, code) // ip shares the backing slice
	ip.RIP = 0x400000
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 1 || ip.SBStats.Formed == 0 {
		t.Fatalf("first run: rax=%d formed=%d", ip.Regs[RAX], ip.SBStats.Formed)
	}
	copy(code, prog(2)) // in-place patch, no InvalidateCode call
	ip.RIP = 0x400000
	ip.Halted = false
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 2 {
		t.Fatalf("after in-place patch: rax = %d, want 2 (stale superblock hit)", ip.Regs[RAX])
	}
	if ip.SBStats.Invalidations == 0 {
		t.Fatal("patched block was not invalidated")
	}
}

// TestSuperblockInvalidateOnAddRegion: mapping a new region drops every
// cached block.
func TestSuperblockInvalidateOnAddRegion(t *testing.T) {
	prev := SetSuperblock(true)
	defer SetSuperblock(prev)
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(3))
	ip.RIP = 0x400000
	if err := ip.Run(1000); err != nil {
		t.Fatal(err)
	}
	if ip.SBStats.Formed == 0 {
		t.Fatal("nothing fused")
	}
	inv := ip.SBStats.Invalidations
	ip.AddRegion(0x500000, make([]byte, 64))
	if ip.SBStats.Invalidations != inv+1 {
		t.Fatalf("AddRegion did not invalidate blocks (got %d, want %d)", ip.SBStats.Invalidations, inv+1)
	}
	if len(ip.sbCache) != 0 {
		t.Fatalf("block cache not empty after AddRegion: %d entries", len(ip.sbCache))
	}
}

// TestSuperblockPageBoundary: formation never fuses past the entry page;
// execution across the boundary uses a second block.
func TestSuperblockPageBoundary(t *testing.T) {
	prev := SetSuperblock(true)
	defer SetSuperblock(prev)
	code := make([]byte, 0, sbPageSize+16)
	for len(code) < sbPageSize+8 {
		code = append(code, 0x90) // NOP
	}
	code = append(code, 0xf4) // HLT
	ip := NewInterp()
	ip.AddRegion(0x400000, code) // page-aligned base
	entry := uint64(0x400000 + sbPageSize - 6)
	ip.RIP = entry
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.SBStats.LenHist[6] == 0 {
		t.Fatalf("expected a 6-instruction block ending at the page boundary; hist=%v", ip.SBStats.LenHist[:16])
	}
	if ip.SBStats.Formed < 2 {
		t.Fatalf("expected a second block after the boundary, formed=%d", ip.SBStats.Formed)
	}
}

// TestSuperblockStats sanity-checks the block-length histogram and mean on
// a single straight-line program.
func TestSuperblockStats(t *testing.T) {
	prev := SetSuperblock(true)
	defer SetSuperblock(prev)
	var a Asm
	for i := 0; i < 9; i++ {
		a.Nop()
	}
	a.Hlt()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.RIP = 0x400000
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	st := &ip.SBStats
	if st.Formed != 1 || st.Execs != 1 || st.Instrs != 10 {
		t.Fatalf("stats: %+v", st)
	}
	if st.LenHist[10] != 1 {
		t.Fatalf("LenHist[10] = %d, want 1", st.LenHist[10])
	}
	if got := st.MeanLen(); got != 10 {
		t.Fatalf("MeanLen = %v, want 10", got)
	}
}

// runPatched runs code, overwrites it in place with patch (no
// InvalidateCode call), and runs it again from the same entry.
func runPatched(t *testing.T, code, patch []byte, superblock bool) *Interp {
	t.Helper()
	if len(patch) != len(code) {
		t.Fatalf("patch length %d != code length %d", len(patch), len(code))
	}
	prev := SetSuperblock(superblock)
	defer SetSuperblock(prev)
	region := append([]byte(nil), code...)
	ip := NewInterp()
	ip.AddRegion(0x400000, region) // ip shares the backing slice
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			copy(region, patch)
		}
		ip.RIP = 0x400000
		ip.Halted = false
		if err := ip.Run(100); err != nil {
			t.Fatal(err)
		}
	}
	return ip
}

// TestDecodeCacheTransparent: the sum loop ends in the same architectural
// state under Step and superblock dispatch, with the superblock run
// serving its loop body from cached blocks.
func TestDecodeCacheTransparent(t *testing.T) {
	code := loopProgram(100)
	on, ipOn := runSBProgram(t, code, true, 10000)
	off, _ := runSBProgram(t, code, false, 10000)
	diffState(t, on, off)
	if on.Regs[RAX] != 5050 {
		t.Fatalf("rax = %d, want 5050", on.Regs[RAX])
	}
	if ipOn.SBStats.Hits == 0 {
		t.Fatal("loop reused no cached block")
	}
}

// TestDecodeCacheSelfModifyingCode overwrites already-executed code bytes
// in place (same instruction length); both Step and superblock dispatch
// must execute the new bytes on the second run.
func TestDecodeCacheSelfModifyingCode(t *testing.T) {
	prog := func(v int32) []byte {
		var a Asm
		a.MovRI32(RAX, v)
		a.Hlt()
		return a.Bytes()
	}
	step := runPatched(t, prog(1), prog(2), false)
	sb := runPatched(t, prog(1), prog(2), true)
	if step.Regs[RAX] != 2 || sb.Regs[RAX] != 2 {
		t.Fatalf("after in-place patch: rax step=%d superblock=%d, want 2", step.Regs[RAX], sb.Regs[RAX])
	}
	if step.Steps != sb.Steps {
		t.Fatalf("steps diverged: step=%d superblock=%d", step.Steps, sb.Steps)
	}
}

// TestDecodeCacheLengthChangingPatch overwrites executed code with
// instructions of different lengths, shifting every decode boundary.
func TestDecodeCacheLengthChangingPatch(t *testing.T) {
	var a Asm
	for i := 0; i < 12; i++ {
		a.Nop()
	}
	a.Hlt()
	code := a.Bytes()
	var b Asm
	b.MovRI32(RBX, 7) // 5+ bytes where single-byte NOPs ran
	for b.Len() < len(code)-1 {
		b.Nop()
	}
	b.Hlt()
	step := runPatched(t, code, b.Bytes(), false)
	sb := runPatched(t, code, b.Bytes(), true)
	if step.Regs[RBX] != 7 || sb.Regs[RBX] != 7 {
		t.Fatalf("rbx step=%d superblock=%d, want 7 (stale decode across shifted boundaries)",
			step.Regs[RBX], sb.Regs[RBX])
	}
	if step.Regs != sb.Regs || step.Steps != sb.Steps {
		t.Fatalf("diverged: step regs=%#x steps=%d, superblock regs=%#x steps=%d",
			step.Regs, step.Steps, sb.Regs, sb.Steps)
	}
}

// TestDecodeCacheInvalidateOnAddRegion: after a region is added to a
// running interpreter, code in it runs the same under Step and superblock
// dispatch, and the superblock cache was dropped.
func TestDecodeCacheInvalidateOnAddRegion(t *testing.T) {
	run := func(superblock bool) *Interp {
		prev := SetSuperblock(superblock)
		defer SetSuperblock(prev)
		ip := NewInterp()
		ip.AddRegion(0x400000, loopProgram(3))
		ip.RIP = 0x400000
		if err := ip.Run(1000); err != nil {
			t.Fatal(err)
		}
		inv := ip.SBStats.Invalidations
		ip.AddRegion(0x500000, loopProgram(4))
		if superblock && ip.SBStats.Invalidations != inv+1 {
			t.Fatalf("AddRegion did not invalidate (got %d, want %d)", ip.SBStats.Invalidations, inv+1)
		}
		ip.RIP = 0x500000
		ip.Halted = false
		if err := ip.Run(1000); err != nil {
			t.Fatal(err)
		}
		return ip
	}
	step, sb := run(false), run(true)
	if sb.Regs[RAX] != 10 || step.Regs != sb.Regs || step.Steps != sb.Steps {
		t.Fatalf("second region: step rax=%d steps=%d, superblock rax=%d steps=%d, want rax 10",
			step.Regs[RAX], step.Steps, sb.Regs[RAX], sb.Steps)
	}
}
