package isa

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"
)

// runProgram executes code at base 0x400000 with a 64 KiB stack/data region
// at 0x100000, until HLT.
func runProgram(t *testing.T, build func(a *Asm)) *Interp {
	t.Helper()
	var a Asm
	build(&a)
	a.Hlt()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.AddRegion(0x100000, make([]byte, 1<<16))
	ip.RIP = 0x400000
	ip.Regs[RSP] = 0x100000 + 1<<15
	if err := ip.Run(10000); err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestInterpMovAdd(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 40)
		a.MovRI32(RBX, 2)
		a.AluRR(ADD, RAX, RBX)
	})
	if ip.Regs[RAX] != 42 {
		t.Fatalf("rax = %d", ip.Regs[RAX])
	}
}

func TestInterpPushPop(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 7)
		a.PushReg(RAX)
		a.MovRI32(RAX, 0)
		a.PopReg(RBX)
	})
	if ip.Regs[RBX] != 7 {
		t.Fatalf("rbx = %d", ip.Regs[RBX])
	}
}

func TestInterpMemoryOps(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 0x100000)
		a.MovRI32(RAX, 0x1234)
		a.MovMR(Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40}, RAX)
		a.MovRM(RBX, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40})
		a.AluMI(ADD, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40}, 1)
		a.MovRM(RCX, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40})
	})
	if ip.Regs[RBX] != 0x1234 || ip.Regs[RCX] != 0x1235 {
		t.Fatalf("rbx=%#x rcx=%#x", ip.Regs[RBX], ip.Regs[RCX])
	}
}

func TestInterpLea(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 0x1000)
		a.MovRI32(RCX, 0x20)
		a.Lea(RBX, Mem{Base: RDI, Index: RCX, Scale: 4, Disp: 0xD401})
	})
	want := uint64(0x1000 + 0x20*4 + 0xD401)
	if ip.Regs[RBX] != want {
		t.Fatalf("rbx=%#x want %#x", ip.Regs[RBX], want)
	}
}

func TestInterpImul(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RDI, 6)
		a.Imul3(RCX, RDI, 7)
		a.MovRI32(RAX, 3)
		a.MovRI32(RBX, 5)
		a.Imul2(RAX, RBX)
	})
	if ip.Regs[RCX] != 42 || ip.Regs[RAX] != 15 {
		t.Fatalf("rcx=%d rax=%d", ip.Regs[RCX], ip.Regs[RAX])
	}
}

func TestInterpBranching(t *testing.T) {
	// Loop: sum 1..5 using jcc backward.
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, 0)
		a.MovRI32(RCX, 5)
		top := a.Len()
		a.AluRR(ADD, RAX, RCX)
		subRCX1(a)
		body := a.Len()
		a.Jcc(CondNE, 0) // placeholder
		// Patch the rel32 to jump back to top.
		rel := int32(top - (body + 6))
		b := a.Bytes()
		b[body+2] = byte(rel)
		b[body+3] = byte(rel >> 8)
		b[body+4] = byte(rel >> 16)
		b[body+5] = byte(rel >> 24)
	})
	if ip.Regs[RAX] != 15 {
		t.Fatalf("sum = %d, want 15", ip.Regs[RAX])
	}
}

func TestInterpCallRet(t *testing.T) {
	// call +1 (skip a HLT); callee sets rbx and returns.
	var a Asm
	a.CallRel32(1) // skip the HLT that follows
	a.Hlt()
	a.MovRI32(RBX, 99)
	a.Ret()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.AddRegion(0x100000, make([]byte, 4096))
	ip.RIP = 0x400000
	ip.Regs[RSP] = 0x100000 + 2048
	if err := ip.Run(100); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RBX] != 99 {
		t.Fatalf("rbx = %d", ip.Regs[RBX])
	}
}

func TestInterpVMFuncCounted(t *testing.T) {
	ip := runProgram(t, func(a *Asm) {
		a.Vmfunc()
		a.Vmfunc()
	})
	if ip.VMFuncCount != 2 {
		t.Fatalf("vmfunc count = %d", ip.VMFuncCount)
	}
}

func TestInterpInt3Traps(t *testing.T) {
	var a Asm
	a.Int3()
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.RIP = 0x400000
	if err := ip.Step(); err == nil {
		t.Fatal("int3 did not trap")
	}
}

func TestInterpFaultOnWildAccess(t *testing.T) {
	var a Asm
	a.MovRM(RAX, Mem{Base: NoReg, Index: NoReg, Scale: 1, Disp: 0x10})
	ip := NewInterp()
	ip.AddRegion(0x400000, a.Bytes())
	ip.RIP = 0x400000
	if err := ip.Step(); err == nil {
		t.Fatal("unmapped access did not fault")
	}
}

func TestInterpFlagsSignedCompare(t *testing.T) {
	// CMP -1, 1 then JL should be taken.
	ip := runProgram(t, func(a *Asm) {
		a.MovRI32(RAX, -1)
		a.MovRI32(RBX, 1)
		a.AluRR(CMP, RAX, RBX)
		a.Jcc(CondL, 7) // skip the next MOV (7 bytes)
		a.MovRI32(RCX, 1)
		a.MovRI32(RDX, 2)
	})
	if ip.Regs[RCX] != 0 {
		t.Fatal("JL not taken for -1 < 1")
	}
	if ip.Regs[RDX] != 2 {
		t.Fatal("fall-through after jump target lost")
	}
}

func TestInterpRIPRelative(t *testing.T) {
	// mov rax, [rip+disp] reading a constant placed after the code.
	var a Asm
	a.MovRM(RAX, Mem{RIPRel: true, Base: NoReg, Index: NoReg, Scale: 1, Disp: 1}) // points past HLT
	a.Hlt()
	code := a.Bytes()
	code = append(code, 0xEF, 0xBE, 0, 0, 0, 0, 0, 0) // the constant 0xBEEF
	ip := NewInterp()
	ip.AddRegion(0x400000, code)
	ip.RIP = 0x400000
	if err := ip.Run(10); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 0xBEEF {
		t.Fatalf("rip-relative load got %#x", ip.Regs[RAX])
	}
}

// subRCX1 appends SUB RCX, 1 in its short form (REX.W 83 /5 ib), which
// only the decoder meets.
func subRCX1(a *Asm) { a.buf = append(a.buf, 0x48, 0x83, 0xe9, 0x01) }

// loopProgram assembles a sum-1..n loop, which re-executes the same RIPs
// many times.
func loopProgram(n int32) []byte {
	var a Asm
	a.MovRI32(RAX, 0)
	a.MovRI32(RCX, n)
	top := a.Len()
	a.AluRR(ADD, RAX, RCX)
	subRCX1(&a)
	a.Jcc(CondNE, int32(top-(a.Len()+6)))
	a.Hlt()
	return a.Bytes()
}

// TestDecodeCacheTransparent: the sum loop re-executes its body from the
// same RIPs and ends with the right sum.
func TestDecodeCacheTransparent(t *testing.T) {
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(100))
	ip.RIP = 0x400000
	if err := ip.Run(10000); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 5050 {
		t.Fatalf("rax = %d, want 5050", ip.Regs[RAX])
	}
}

// TestSuperblockMaxStepsExact: Run's step limit trips after exactly
// maxSteps instructions, wherever in the loop that lands.
func TestSuperblockMaxStepsExact(t *testing.T) {
	for _, maxSteps := range []int{1, 2, 3, 5, 17, 100, 1001} {
		ip := NewInterp()
		ip.AddRegion(0x400000, loopProgram(1000))
		ip.RIP = 0x400000
		err := ip.Run(maxSteps)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("exceeded %d steps", maxSteps)) {
			t.Fatalf("maxSteps=%d: err = %v, want step-limit error", maxSteps, err)
		}
		if ip.Steps != maxSteps {
			t.Fatalf("maxSteps=%d: limit tripped after %d steps", maxSteps, ip.Steps)
		}
	}
}

// smcProgram builds a program whose third instruction stores new code
// bytes over its own fourth instruction. The overwritten instruction
// originally loads RCX=1; the stored bytes change it to load newVal.
func smcProgram(newVal int32) []byte {
	var patch Asm
	patch.MovRI32(RCX, newVal)
	for patch.Len() < 8 {
		patch.Nop() // pad the stored quadword to 8 bytes
	}
	newBytes := binary.LittleEndian.Uint64(patch.Bytes()[:8])

	// Immediate values do not change encoding lengths, so the overwritten
	// instruction's offset is known before its address is.
	var a Asm
	a.MovRI64(RBX, 0)
	a.MovRI64(RAX, 0)
	a.MovMR(Mem{Base: RBX, Index: NoReg}, RAX)
	target := 0x400000 + uint64(a.Len())

	a = Asm{}
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

// TestSuperblockSelfModifyingBail: a store over code the run has not yet
// reached is what executes when the run gets there.
func TestSuperblockSelfModifyingBail(t *testing.T) {
	ip := NewInterp()
	ip.AddRegion(0x400000, smcProgram(2))
	ip.RIP = 0x400000
	if err := ip.Run(1000); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RCX] != 2 {
		t.Fatalf("rcx = %d, want 2 (stale instruction executed)", ip.Regs[RCX])
	}
}

// runPatched runs code, overwrites it in place with patch, and runs it
// again from the same entry.
func runPatched(t *testing.T, code, patch []byte) *Interp {
	t.Helper()
	if len(patch) != len(code) {
		t.Fatalf("patch length %d != code length %d", len(patch), len(code))
	}
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

// TestDecodeCacheSelfModifyingCode overwrites already-executed code bytes
// in place (same instruction length); the second run executes the new
// bytes.
func TestDecodeCacheSelfModifyingCode(t *testing.T) {
	prog := func(v int32) []byte {
		var a Asm
		a.MovRI32(RAX, v)
		a.Hlt()
		return a.Bytes()
	}
	if ip := runPatched(t, prog(1), prog(2)); ip.Regs[RAX] != 2 {
		t.Fatalf("after in-place patch: rax = %d, want 2", ip.Regs[RAX])
	}
}

// TestSuperblockRewriteBetweenDispatches patches a straight-line run in
// place between two runs; the second run executes the new bytes.
func TestSuperblockRewriteBetweenDispatches(t *testing.T) {
	prog := func(v int32) []byte {
		var a Asm
		a.MovRI32(RAX, v)
		a.Nop()
		a.Hlt()
		return a.Bytes()
	}
	if ip := runPatched(t, prog(1), prog(2)); ip.Regs[RAX] != 2 {
		t.Fatalf("after in-place patch: rax = %d, want 2", ip.Regs[RAX])
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
	ip := runPatched(t, code, b.Bytes())
	if ip.Regs[RBX] != 7 {
		t.Fatalf("rbx = %d, want 7 (stale decode across shifted boundaries)", ip.Regs[RBX])
	}
}

// TestDecodeCacheInvalidateOnAddRegion: code in a region added after a run
// executes.
func TestDecodeCacheInvalidateOnAddRegion(t *testing.T) {
	ip := NewInterp()
	ip.AddRegion(0x400000, loopProgram(3))
	ip.RIP = 0x400000
	if err := ip.Run(1000); err != nil {
		t.Fatal(err)
	}
	ip.AddRegion(0x500000, loopProgram(4))
	ip.RIP = 0x500000
	ip.Halted = false
	if err := ip.Run(1000); err != nil {
		t.Fatal(err)
	}
	if ip.Regs[RAX] != 10 {
		t.Fatalf("second region: rax = %d, want 10", ip.Regs[RAX])
	}
}
