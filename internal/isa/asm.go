package isa

// Asm is an incremental assembler for the supported x86-64 subset. Each
// helper builds one Inst and encodes it through the table, so it emits
// the canonical form Encode picks. All register-register and
// register-memory operations are 64-bit (REX.W) except Alu32RR's. The ALU
// helpers take one of ADD, OR, AND, SUB, XOR and CMP.
type Asm struct {
	buf []byte
}

// Bytes returns the assembled machine code.
func (a *Asm) Bytes() []byte { return a.buf }

// Len returns the current length in bytes.
func (a *Asm) Len() int { return len(a.buf) }

// put encodes an instruction a helper built. The helpers build only shapes
// the table holds, so an error is a misuse, and panics.
func (a *Asm) put(in *Inst) {
	if err := a.encode(in); err != nil {
		panic(err)
	}
}

// Nop emits a one-byte NOP (90).
func (a *Asm) Nop() { a.put(&Inst{Op: NOP}) }

// Vmfunc emits VMFUNC (0F 01 D4).
func (a *Asm) Vmfunc() { a.put(&Inst{Op: VMFUNC}) }

// Syscall emits SYSCALL (0F 05).
func (a *Asm) Syscall() { a.put(&Inst{Op: SYSCALL}) }

// Ret emits RET (C3).
func (a *Asm) Ret() { a.put(&Inst{Op: RET}) }

// Int3 emits INT3 (CC).
func (a *Asm) Int3() { a.put(&Inst{Op: INT3}) }

// Hlt emits HLT (F4).
func (a *Asm) Hlt() { a.put(&Inst{Op: HLT}) }

// PushReg emits PUSH r64 (50+r).
func (a *Asm) PushReg(r Reg) { a.put(&Inst{Op: PUSH, Dst: r}) }

// PopReg emits POP r64 (58+r).
func (a *Asm) PopReg(r Reg) { a.put(&Inst{Op: POP, Dst: r}) }

// MovRR emits MOV dst, src (REX.W 89 /r with dst in r/m).
func (a *Asm) MovRR(dst, src Reg) { a.put(&Inst{Op: MOV, Dst: dst, Src: src}) }

// MovRM emits MOV dst, [m] (REX.W 8B /r).
func (a *Asm) MovRM(dst Reg, m Mem) { a.put(&Inst{Op: MOV, Dst: dst, M: m, HasMem: true}) }

// MovMR emits MOV [m], src (REX.W 89 /r).
func (a *Asm) MovMR(m Mem, src Reg) {
	a.put(&Inst{Op: MOV, Src: src, M: m, HasMem: true, MemIsDst: true})
}

// MovRI64 emits MOVABS dst, imm64 (REX.W B8+r io).
func (a *Asm) MovRI64(dst Reg, imm int64) {
	a.put(&Inst{Op: MOVI, Dst: dst, Imm: imm, HasImm: true, ImmLen: 8})
}

// MovRI32 emits MOV dst, imm32 sign-extended (REX.W C7 /0 id).
func (a *Asm) MovRI32(dst Reg, imm int32) {
	a.put(&Inst{Op: MOVI, Dst: dst, Imm: int64(imm), HasImm: true})
}

// MovMI32 emits MOV [m], imm32 sign-extended (REX.W C7 /0 id).
func (a *Asm) MovMI32(m Mem, imm int32) {
	a.put(&Inst{Op: MOVI, M: m, HasMem: true, MemIsDst: true, Imm: int64(imm), HasImm: true})
}

// AluRR emits <op> dst, src (REX.W base+1 /r with dst in r/m).
func (a *Asm) AluRR(op Op, dst, src Reg) { a.put(&Inst{Op: op, Dst: dst, Src: src}) }

// Alu32RR emits the 32-bit form <op> dst32, src32 (base+1 /r, no REX.W).
// The result zero-extends into the 64-bit register.
func (a *Asm) Alu32RR(op Op, dst, src Reg) {
	a.put(&Inst{Op: op, Dst: dst, Src: src, Bits32: true})
}

// AluRM emits <op> dst, [m] (REX.W base+3 /r).
func (a *Asm) AluRM(op Op, dst Reg, m Mem) { a.put(&Inst{Op: op, Dst: dst, M: m, HasMem: true}) }

// AluMR emits <op> [m], src (REX.W base+1 /r).
func (a *Asm) AluMR(op Op, m Mem, src Reg) {
	a.put(&Inst{Op: op, Src: src, M: m, HasMem: true, MemIsDst: true})
}

// AluRI emits <op> dst, imm32 (REX.W 81 /n id).
func (a *Asm) AluRI(op Op, dst Reg, imm int32) {
	a.put(&Inst{Op: op, Dst: dst, Imm: int64(imm), HasImm: true})
}

// AluMI emits <op> [m], imm32 (REX.W 81 /n id).
func (a *Asm) AluMI(op Op, m Mem, imm int32) {
	a.put(&Inst{Op: op, M: m, HasMem: true, MemIsDst: true, Imm: int64(imm), HasImm: true})
}

// TestRR emits TEST dst, src (REX.W 85 /r).
func (a *Asm) TestRR(dst, src Reg) { a.put(&Inst{Op: TEST, Dst: dst, Src: src}) }

// TestMR emits TEST [m], src (REX.W 85 /r).
func (a *Asm) TestMR(m Mem, src Reg) {
	a.put(&Inst{Op: TEST, Src: src, M: m, HasMem: true, MemIsDst: true})
}

// Imul2 emits IMUL dst, src (REX.W 0F AF /r).
func (a *Asm) Imul2(dst, src Reg) { a.put(&Inst{Op: IMUL2, Dst: dst, Src: src}) }

// Imul2M emits IMUL dst, [m] (REX.W 0F AF /r).
func (a *Asm) Imul2M(dst Reg, m Mem) { a.put(&Inst{Op: IMUL2, Dst: dst, M: m, HasMem: true}) }

// Imul3 emits IMUL dst, src, imm32 (REX.W 69 /r id).
func (a *Asm) Imul3(dst, src Reg, imm int32) {
	a.put(&Inst{Op: IMUL3, Dst: dst, Src: src, Imm: int64(imm), HasImm: true})
}

// Imul3M emits IMUL dst, [m], imm32 (REX.W 69 /r id).
func (a *Asm) Imul3M(dst Reg, m Mem, imm int32) {
	a.put(&Inst{Op: IMUL3, Dst: dst, M: m, HasMem: true, Imm: int64(imm), HasImm: true})
}

// Lea emits LEA dst, [m] (REX.W 8D /r).
func (a *Asm) Lea(dst Reg, m Mem) { a.put(&Inst{Op: LEA, Dst: dst, M: m, HasMem: true}) }

// JmpRel32 emits JMP rel32 (E9 cd). rel is relative to the end of this
// instruction.
func (a *Asm) JmpRel32(rel int32) { a.put(&Inst{Op: JMP, Rel: rel}) }

// CallRel32 emits CALL rel32 (E8 cd).
func (a *Asm) CallRel32(rel int32) { a.put(&Inst{Op: CALL, Rel: rel}) }

// Jcc emits Jcc rel32 (0F 8x cd).
func (a *Asm) Jcc(c Cond, rel int32) { a.put(&Inst{Op: JCC, Cond: c, Rel: rel}) }
