package rewrite

import (
	"math/rand"
	"testing"

	"skybridge/internal/isa"
)

const (
	testCodeBase = uint64(0x400000)
	testDataBase = uint64(0x100000)
	testDataLen  = 1 << 16
)

// buildProgram assembles instructions and appends trailing NOP padding plus
// HLT so rewrite windows always have room to grow.
func buildProgram(build func(a *isa.Asm)) []byte {
	var a isa.Asm
	build(&a)
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	return a.Bytes()
}

// runBoth executes the original program and its rewritten form from
// identical initial states and compares final registers (except RSP is
// compared too — push/pop brackets must balance), data memory, and ZF/SF.
func runBoth(t *testing.T, code []byte, res *Result, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var initRegs [16]uint64
	for i := range initRegs {
		initRegs[i] = rng.Uint64()
	}
	// Keep pointers inside the data region for memory-operand programs.
	initRegs[isa.RSP] = testDataBase + testDataLen - 256

	initData := make([]byte, testDataLen)
	rng.Read(initData)

	run := func(code, page []byte) (*isa.Interp, []byte) {
		ip := isa.NewInterp()
		data := append([]byte(nil), initData...)
		ip.AddRegion(testCodeBase, append([]byte(nil), code...))
		if len(page) > 0 {
			ip.AddRegion(DefaultRewriteBase, append([]byte(nil), page...))
		}
		ip.AddRegion(testDataBase, data)
		ip.RIP = testCodeBase
		ip.Regs = initRegs
		if err := ip.Run(100000); err != nil {
			t.Fatalf("execution failed: %v", err)
		}
		return ip, data
	}

	orig, origData := run(code, nil)
	got, gotData := run(res.Code, res.RewritePage)

	for r := 0; r < 16; r++ {
		if orig.Regs[r] != got.Regs[r] {
			t.Errorf("register %v: original %#x, rewritten %#x", isa.Reg(r), orig.Regs[r], got.Regs[r])
		}
	}
	if orig.ZF != got.ZF || orig.SF != got.SF {
		t.Errorf("flags: original ZF=%v SF=%v, rewritten ZF=%v SF=%v", orig.ZF, orig.SF, got.ZF, got.SF)
	}
	// Bytes below the stack pointer are architecturally undefined (push/pop
	// brackets in rewritten code legitimately scribble there), so exclude a
	// small window below the initial RSP from the comparison.
	rspOff := int(initRegs[isa.RSP] - testDataBase)
	for i := range origData {
		if i >= rspOff-64 && i < rspOff {
			continue
		}
		if origData[i] != gotData[i] {
			t.Fatalf("data byte %#x differs: %#x vs %#x", i, origData[i], gotData[i])
		}
	}
	if got.VMFuncCount != 0 {
		t.Errorf("rewritten code executed %d VMFUNCs", got.VMFuncCount)
	}
}

// rewriteAndVerify rewrites, asserts the pattern is gone, and checks
// execution equivalence across several random initial states.
func rewriteAndVerify(t *testing.T, code []byte, wantCase Case) *Result {
	t.Helper()
	if len(FindPattern(code)) == 0 {
		t.Fatal("test program does not contain the pattern")
	}
	occs, err := Scan(code)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, o := range occs {
		if o.Case == wantCase {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected an occurrence of case %v, got %+v", wantCase, occs)
	}
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(FindPattern(res.Code)) != 0 {
		t.Fatal("pattern survives in code")
	}
	if len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives in rewriting page")
	}
	if len(res.Code) != len(code) {
		t.Fatalf("code length changed: %d -> %d", len(code), len(res.Code))
	}
	for seed := int64(1); seed <= 5; seed++ {
		runBoth(t, code, res, seed)
	}
	return res
}

func TestRewriteLiteralVMFunc(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, 1)
		a.Vmfunc()
		a.MovRI32(isa.RBX, 2)
	})
	res := rewriteAndVerify(t, code, CaseOpcode)
	if len(res.RewritePage) != 0 {
		t.Error("literal VMFUNC should be fixed in place with NOPs")
	}
	if res.CaseCounts()[CaseOpcode] != 1 {
		t.Errorf("case counts: %v", res.CaseCounts())
	}
}

func TestRewriteModRMCase(t *testing.T) {
	// imul rcx, [rdi], 0x2222D401 encodes ModRM=0F followed by imm 01 D4 22 22.
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RDI, int32(testDataBase+0x100))
		a.Imul3M(isa.RCX, isa.Mem{Base: isa.RDI, Index: isa.NoReg, Scale: 1}, 0x2222D401)
	})
	rewriteAndVerify(t, code, CaseModRM)
}

func TestRewriteSIBCase(t *testing.T) {
	// lea rbx, [rdi + rcx + 0xD401]: SIB=0F, disp starts 01 D4.
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RDI, 0x1000)
		a.MovRI32(isa.RCX, 0x20)
		a.Lea(isa.RBX, isa.Mem{Base: isa.RDI, Index: isa.RCX, Scale: 1, Disp: 0xD401})
	})
	rewriteAndVerify(t, code, CaseSIB)
}

func TestRewriteDispCase(t *testing.T) {
	// add rbx, [rax + disp] where disp's little-endian bytes contain
	// 0F 01 D4. The base register is chosen so base+disp wraps back into
	// the data region.
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(int64(testDataBase)+0x100-0xD4010F))
		a.MovRI32(isa.RBX, 5)
		a.AluRM(isa.ADD, isa.RBX, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F})
	})
	rewriteAndVerify(t, code, CaseDisp)
}

func TestRewriteDispCaseStore(t *testing.T) {
	// Store form: the displaced memory operand is the destination.
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(int64(testDataBase)+0x200-0xD4010F))
		a.MovRI32(isa.RBX, 0x1234)
		a.MovMR(isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F}, isa.RBX)
		a.MovRM(isa.RCX, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F})
	})
	rewriteAndVerify(t, code, CaseDisp)
}

func TestRewriteImmCaseALU(t *testing.T) {
	for _, op := range []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR} {
		op := op
		t.Run(op.String(), func(t *testing.T) {
			code := buildProgram(func(a *isa.Asm) {
				a.MovRI32(isa.RAX, 0x1234)
				a.AluRI(op, isa.RAX, 0xD4010F)
			})
			rewriteAndVerify(t, code, CaseImm)
		})
	}
}

func TestRewriteImmCaseCMP(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, 0xD4010F)
		a.AluRI(isa.CMP, isa.RAX, 0xD4010F)
		a.Jcc(isa.CondNE, 7)
		a.MovRI32(isa.RBX, 1) // taken only if equal
	})
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteImmCaseMovImm32(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RBX, 0xD4010F)
	})
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteImmCaseMovImm64(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI64(isa.RBX, 0x11_0FD4010F_22) // pattern inside imm64 bytes: 22 0F 01 D4 0F 11
	})
	// Verify the pattern really is in there.
	if len(FindPattern(code)) == 0 {
		t.Skip("constructed imm64 does not contain pattern")
	}
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteImmCaseImul3(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RSI, 3)
		a.Imul3(isa.RBX, isa.RSI, 0xD4010F)
	})
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteImmCaseImul3SameDstSrc(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RBX, 3)
		a.Imul3(isa.RBX, isa.RBX, 0xD4010F)
	})
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteImmCaseMemALU(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(testDataBase+0x40))
		a.AluMI(isa.ADD, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1}, 0xD4010F)
		a.MovRM(isa.RBX, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1})
	})
	rewriteAndVerify(t, code, CaseImm)
}

func TestRewriteJumpImmediate(t *testing.T) {
	// A forward jump whose rel32 equals 0x0FD4010F would land far outside
	// the program; instead craft a CALL whose rel32 bytes contain the
	// pattern by placing the callee at exactly the right offset. Simpler:
	// use a JMP over a large NOP sled of exactly 0xD4010F... that is too
	// big to execute. Instead verify the scan classification and that
	// rewriting produces clean output (without executing).
	var a isa.Asm
	a.JmpRel32(0x0FD4010F &^ 0xFF) // rel bytes: 00 01 D4 0F -> contains 01 D4 0F? build explicitly below
	code := a.Bytes()
	// Overwrite the rel bytes so that they contain exactly 0F 01 D4.
	code[1], code[2], code[3], code[4] = 0x0f, 0x01, 0xd4, 0x00
	occs, err := Scan(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != 1 || occs[0].Case != CaseImm || occs[0].Inst.Op != isa.JMP {
		t.Fatalf("occurrences: %+v", occs)
	}
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives")
	}
	// The moved JMP must preserve its absolute target.
	insts, err := isa.DecodeAll(res.RewritePage)
	if err != nil {
		t.Fatal(err)
	}
	origTarget := int64(testCodeBase) + 5 + int64(int32(0x00d4010f))
	found := false
	off := 0
	for _, in := range insts {
		if in.Op == isa.JMP {
			target := int64(DefaultRewriteBase) + int64(off) + int64(in.Len) + int64(in.Rel)
			if target == origTarget {
				found = true
			}
		}
		off += in.Len
	}
	if !found {
		t.Fatal("moved jump does not retarget the original destination")
	}
}

func TestRewriteSpanningCase(t *testing.T) {
	// Instruction 1 ends with 0F (imm32 = 0x0F??????), instruction 2 is
	// the 32-bit `add esp, edx` (01 D4): the pattern spans the boundary.
	var a isa.Asm
	a.AluRI(isa.ADD, isa.RAX, 0x0F000000)
	a.Alu32RR(isa.ADD, isa.RSP, isa.RDX)
	a.Alu32RR(isa.XOR, isa.RDX, isa.RDX) // rsp damage is undone below
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	code := a.Bytes()

	occs, err := Scan(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != 1 || occs[0].Case != CaseSpanning {
		t.Fatalf("occurrences: %+v", occs)
	}
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives")
	}

	// Execute both with rdx chosen so rsp stays valid (rdx=0).
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var regs [16]uint64
		for i := range regs {
			regs[i] = rng.Uint64()
		}
		regs[isa.RDX] = 0
		regs[isa.RSP] = testDataBase + 1024

		run := func(c, page []byte) *isa.Interp {
			ip := isa.NewInterp()
			ip.AddRegion(testCodeBase, append([]byte(nil), c...))
			if len(page) > 0 {
				ip.AddRegion(DefaultRewriteBase, append([]byte(nil), page...))
			}
			ip.AddRegion(testDataBase, make([]byte, 4096))
			ip.RIP = testCodeBase
			ip.Regs = regs
			if err := ip.Run(1000); err != nil {
				t.Fatal(err)
			}
			return ip
		}
		o, g := run(code, nil), run(res.Code, res.RewritePage)
		for r := 0; r < 16; r++ {
			if o.Regs[r] != g.Regs[r] {
				t.Fatalf("seed %d reg %v: %#x vs %#x", seed, isa.Reg(r), o.Regs[r], g.Regs[r])
			}
		}
	}
}

func TestRewriteMultipleOccurrences(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.MovRI32(isa.RAX, 1)
		a.Vmfunc()
		a.AluRI(isa.ADD, isa.RAX, 0xD4010F)
		a.Vmfunc()
		a.MovRI32(isa.RBX, 0xD4010F)
	})
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixed) != 4 {
		t.Fatalf("fixed %d occurrences, want 4", len(res.Fixed))
	}
	if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives")
	}
	runBoth(t, code, res, 99)
}

func TestRewriteCleanCodeUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	code := RandomProgram(rng, 2048, testDataBase, testDataLen)
	if len(FindPattern(code)) != 0 {
		t.Skip("random program accidentally contains pattern")
	}
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixed) != 0 || len(res.RewritePage) != 0 {
		t.Fatal("clean code was modified")
	}
}

// TestRewriteRandomProgramsProperty plants pattern-bearing instructions
// into random programs and verifies rewrite + execution equivalence.
func TestRewriteRandomProgramsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		var a isa.Asm
		pre := RandomProgram(rng, 128+rng.Intn(256), testDataBase, testDataLen)
		pre = pre[:len(pre)-1] // strip HLT
		a = isa.Asm{}
		appendBytes(&a, pre)
		// Plant one of the rewritable forms.
		switch rng.Intn(5) {
		case 0:
			a.Vmfunc()
		case 1:
			a.AluRI(isa.ADD, isa.RBX, 0xD4010F)
		case 2:
			a.MovRI32(isa.RCX, 0xD4010F)
		case 3:
			// Point rax so base+disp wraps into the data region, placed
			// immediately before the planted instruction so the random
			// prefix cannot clobber it.
			a.MovRI32(isa.RAX, int32(int64(testDataBase)+0x300-0xD4010F))
			a.AluRM(isa.XOR, isa.RDX, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F})
		case 4:
			a.Imul3(isa.RSI, isa.RBX, 0xD4010F)
		}
		post := RandomProgram(rng, 64, testDataBase, testDataLen)
		appendBytes(&a, post) // includes HLT
		code := a.Bytes()

		if len(FindPattern(code)) == 0 {
			t.Fatalf("trial %d: plant failed", trial)
		}
		rw := New(testCodeBase)
		res, err := rw.Rewrite(code)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
			t.Fatalf("trial %d: pattern survives", trial)
		}
		runBoth(t, code, res, int64(trial))
	}
}

func appendBytes(a *isa.Asm, b []byte) {
	insts, err := isa.DecodeAll(b)
	if err != nil {
		panic(err)
	}
	for _, in := range insts {
		if err := a.Encode(in); err != nil {
			panic(err)
		}
	}
}

func TestScanClassification(t *testing.T) {
	var a isa.Asm
	a.Vmfunc()
	occs, err := Scan(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != 1 || occs[0].Case != CaseOpcode {
		t.Fatalf("%+v", occs)
	}
}

func TestCountInadvertent(t *testing.T) {
	code := buildProgram(func(a *isa.Asm) {
		a.Vmfunc()                          // deliberate: not counted
		a.AluRI(isa.ADD, isa.RAX, 0xD4010F) // inadvertent
	})
	n, err := CountInadvertent(code)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("inadvertent count = %d, want 1", n)
	}
}

func TestRewritePatternAtCodeStart(t *testing.T) {
	// The very first instruction is VMFUNC: in-place NOP fix at offset 0.
	var a isa.Asm
	a.Vmfunc()
	a.MovRI32(isa.RAX, 1)
	a.Hlt()
	code := a.Bytes()
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(FindPattern(res.Code)) != 0 {
		t.Fatal("pattern survives")
	}
	if res.Code[0] != 0x90 || res.Code[1] != 0x90 || res.Code[2] != 0x90 {
		t.Fatalf("expected leading NOPs, got %x", res.Code[:3])
	}
}

func TestRewriteAdjacentPatterns(t *testing.T) {
	// Two back-to-back VMFUNCs plus an immediate-case in between.
	code := buildProgram(func(a *isa.Asm) {
		a.Vmfunc()
		a.Vmfunc()
		a.AluRI(isa.ADD, isa.RAX, 0xD4010F)
		a.Vmfunc()
	})
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Fixed) != 4 {
		t.Fatalf("fixed %d, want 4", len(res.Fixed))
	}
	if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives")
	}
	runBoth(t, code, res, 5)
}

func TestRewriteSpanningViaImm8(t *testing.T) {
	// imm8 = 0x0F at the end of one instruction, followed by the 32-bit
	// `add esp, edx` (bytes 01 D4): a genuine C2 spanning case distinct
	// from the imm32 variant.
	var a isa.Asm
	a.Alu32RR(isa.ADD, isa.RSP, isa.RDX)
	for i := 0; i < 8; i++ {
		a.Nop()
	}
	a.Hlt()
	// and rdx, 0x0f in the short form REX.W 83 /4 ib, which only the
	// decoder meets.
	code := append([]byte{0x48, 0x83, 0xe2, 0x0f}, a.Bytes()...)
	occs, err := Scan(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(occs) != 1 || occs[0].Case != CaseSpanning {
		t.Fatalf("occurrences: %+v", occs)
	}
	rw := New(testCodeBase)
	res, err := rw.Rewrite(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
		t.Fatal("pattern survives")
	}
}

func TestRewriteImm64PatternInHighBytes(t *testing.T) {
	// The regression found by the Table 6 corpus scan: a movabs whose
	// VMFUNC pattern sits in the HIGH bytes of the imm64, where additive
	// low-byte deltas cannot disturb it.
	for _, imm := range []int64{
		-0x2bfef0aeebdcbb42,       // the corpus value (pattern in bytes 4-6)
		int64(0x0FD4010F00000000), // pattern at bytes 4-6 exactly
		int64(0x000F01D400000000), // pattern at bytes 3-5
		0x11223344_55667788 ^ 0x0000_0F01_D400_0000,
	} {
		code := buildProgram(func(a *isa.Asm) {
			a.MovRI64(isa.R9, imm)
		})
		if len(FindPattern(code)) == 0 {
			continue // this particular value happens not to contain it
		}
		res := rewriteAndVerify(t, code, CaseImm)
		_ = res
	}
}
