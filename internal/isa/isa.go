// Package isa implements a faithful subset of the x86-64 instruction set:
// one table of its variable-length encodings (REX prefix, one- to
// three-byte opcodes, ModRM, SIB, displacement, immediate), which a linear
// decoder, an assembler and a re-encoder all read, and a small
// interpreter.
//
// SkyBridge's defense against the VMFUNC-faking attack (paper §5) scans and
// rewrites real instruction encodings, exploiting exactly the places the
// three bytes 0F 01 D4 can hide inside x86's variable-length format
// (Table 3: opcode, ModRM, SIB, displacement, immediate). Reproducing that
// defense therefore requires a real encoder/decoder, not an abstraction;
// the interpreter exists so tests can *execute* original and rewritten code
// and check functional equivalence rather than trusting the rewriter.
package isa

import "fmt"

// Reg is an x86-64 general-purpose register in hardware encoding order.
type Reg int

// General-purpose registers (hardware encoding 0..15).
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// NoReg marks an absent base/index register.
	NoReg Reg = -1
)

var regNames = [...]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String implements fmt.Stringer.
func (r Reg) String() string {
	if r >= 0 && int(r) < len(regNames) {
		return regNames[r]
	}
	return fmt.Sprintf("reg(%d)", int(r))
}

// Op identifies an operation in the supported subset.
type Op int

// Supported operations.
const (
	NOP Op = iota
	VMFUNC
	SYSCALL
	RET
	PUSH // push r64
	POP  // pop r64
	MOV  // mov r64, r/m64 or r/m64, r64
	MOVI // mov r64, imm64 (B8+r) or r/m64, imm32 (C7 /0)
	ADD
	SUB
	AND
	OR
	XOR
	CMP
	TEST  // test r/m64, r64
	IMUL2 // imul r64, r/m64
	IMUL3 // imul r64, r/m64, imm
	LEA
	JMP  // rel8/rel32
	CALL // rel32
	JCC  // 0F 8x rel32
	INT3
	HLT
)

var opNames = map[Op]string{
	NOP: "nop", VMFUNC: "vmfunc", SYSCALL: "syscall", RET: "ret",
	PUSH: "push", POP: "pop", MOV: "mov", MOVI: "mov", ADD: "add",
	SUB: "sub", AND: "and", OR: "or", XOR: "xor", CMP: "cmp",
	TEST: "test", IMUL2: "imul", IMUL3: "imul", LEA: "lea",
	JMP: "jmp", CALL: "call", JCC: "jcc", INT3: "int3", HLT: "hlt",
}

// String implements fmt.Stringer.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Cond is a condition code for Jcc (the low nibble of the 0F 8x opcode).
type Cond int

// Condition codes.
const (
	CondO  Cond = 0x0
	CondNO Cond = 0x1
	CondB  Cond = 0x2
	CondAE Cond = 0x3
	CondE  Cond = 0x4
	CondNE Cond = 0x5
	CondBE Cond = 0x6
	CondA  Cond = 0x7
	CondS  Cond = 0x8
	CondNS Cond = 0x9
	CondP  Cond = 0xa
	CondNP Cond = 0xb
	CondL  Cond = 0xc
	CondGE Cond = 0xd
	CondLE Cond = 0xe
	CondG  Cond = 0xf
)

// Mem is a memory operand: [Base + Index*Scale + Disp], or RIP-relative
// when RIPRel is set (Base/Index ignored).
type Mem struct {
	Base   Reg // NoReg for absolute disp32 (SIB with no base)
	Index  Reg // NoReg for none; RSP cannot be an index
	Scale  int // 1, 2, 4, 8
	Disp   int32
	RIPRel bool
}

// String implements fmt.Stringer.
func (m Mem) String() string {
	if m.RIPRel {
		return fmt.Sprintf("[rip%+#x]", m.Disp)
	}
	s := "["
	sep := ""
	if m.Base != NoReg {
		s += m.Base.String()
		sep = "+"
	}
	if m.Index != NoReg {
		s += fmt.Sprintf("%s%s*%d", sep, m.Index, m.Scale)
		sep = "+"
	}
	if m.Disp != 0 || sep == "" {
		s += fmt.Sprintf("%s%#x", sep, m.Disp)
	}
	return s + "]"
}

// Inst is one decoded instruction, including the byte offsets of every
// encoding field so the rewriter can classify where an inadvertent VMFUNC
// byte pattern falls (Table 3's "overlap case" column).
type Inst struct {
	Op   Op
	Len  int
	Cond Cond // for JCC

	// Operands. Their use depends on Op:
	//   MOV/ADD/...: Dst and Src registers, or one memory operand (M,
	//   MemIsDst) paired with a register; with HasImm, Src is the
	//   immediate.
	Dst, Src Reg
	M        Mem
	HasMem   bool
	MemIsDst bool
	Imm      int64
	HasImm   bool
	// Rel is the branch displacement for JMP/CALL/JCC (relative to the
	// end of the instruction).
	Rel int32
	// Bits32 marks a 32-bit operand-size ALU form (no REX.W); results
	// zero-extend into the full register as on real hardware.
	Bits32 bool

	// Field layout (byte offsets from instruction start; -1 if absent).
	OpcodeOff, OpcodeLen int
	ModRMOff             int
	SIBOff               int
	DispOff, DispLen     int
	ImmOff, ImmLen       int

	// Raw holds the instruction bytes.
	Raw []byte
}

// String renders an approximate Intel-syntax disassembly, for debugging and
// error messages.
func (in Inst) String() string {
	switch in.Op {
	case NOP, VMFUNC, SYSCALL, RET, INT3, HLT:
		return in.Op.String()
	case PUSH, POP:
		return fmt.Sprintf("%s %s", in.Op, in.Dst)
	case JMP, CALL:
		return fmt.Sprintf("%s %+d", in.Op, in.Rel)
	case JCC:
		return fmt.Sprintf("j%x %+d", int(in.Cond), in.Rel)
	case MOVI:
		if in.HasMem {
			return fmt.Sprintf("mov %s, %#x", in.M, in.Imm)
		}
		return fmt.Sprintf("mov %s, %#x", in.Dst, in.Imm)
	case IMUL3:
		if in.HasMem {
			return fmt.Sprintf("imul %s, %s, %#x", in.Dst, in.M, in.Imm)
		}
		return fmt.Sprintf("imul %s, %s, %#x", in.Dst, in.Src, in.Imm)
	case LEA:
		return fmt.Sprintf("lea %s, %s", in.Dst, in.M)
	}
	// Two-operand ALU forms.
	if in.HasImm {
		if in.HasMem {
			return fmt.Sprintf("%s %s, %#x", in.Op, in.M, in.Imm)
		}
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Dst, in.Imm)
	}
	if in.HasMem {
		if in.MemIsDst {
			return fmt.Sprintf("%s %s, %s", in.Op, in.M, in.Src)
		}
		return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.M)
	}
	return fmt.Sprintf("%s %s, %s", in.Op, in.Dst, in.Src)
}
