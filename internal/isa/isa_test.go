package isa

import (
	"bytes"
	"math/rand"
	"testing"
)

func decodeOne(t *testing.T, b []byte) Inst {
	t.Helper()
	in, err := Decode(b)
	if err != nil {
		t.Fatalf("decode %x: %v", b, err)
	}
	if in.Len != len(b) {
		t.Fatalf("decode %x: consumed %d of %d bytes (%v)", b, in.Len, len(b), in)
	}
	return in
}

func TestDecodeVMFunc(t *testing.T) {
	in := decodeOne(t, []byte{0x0f, 0x01, 0xd4})
	if in.Op != VMFUNC || in.OpcodeLen != 3 {
		t.Fatalf("%+v", in)
	}
}

func TestDecodeSimple(t *testing.T) {
	cases := []struct {
		bytes []byte
		op    Op
	}{
		{[]byte{0x90}, NOP},
		{[]byte{0xc3}, RET},
		{[]byte{0xcc}, INT3},
		{[]byte{0xf4}, HLT},
		{[]byte{0x0f, 0x05}, SYSCALL},
	}
	for _, c := range cases {
		if in := decodeOne(t, c.bytes); in.Op != c.op {
			t.Fatalf("%x decoded to %v, want %v", c.bytes, in.Op, c.op)
		}
	}
}

func TestEncodeDecodeMovRR(t *testing.T) {
	var a Asm
	a.MovRR(RBX, RDI)
	in := decodeOne(t, a.Bytes())
	if in.Op != MOV || in.Dst != RBX || in.Src != RDI {
		t.Fatalf("%v", in)
	}
}

func TestEncodeDecodeExtendedRegs(t *testing.T) {
	var a Asm
	a.MovRR(R13, R9)
	in := decodeOne(t, a.Bytes())
	if in.Dst != R13 || in.Src != R9 {
		t.Fatalf("%v", in)
	}
	var p Asm
	p.PushReg(R12)
	in = decodeOne(t, p.Bytes())
	if in.Op != PUSH || in.Dst != R12 {
		t.Fatalf("%v", in)
	}
}

func TestEncodeDecodeMemoryForms(t *testing.T) {
	mems := []Mem{
		{Base: RDI, Index: NoReg, Scale: 1},
		{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x40},
		{Base: RDI, Index: NoReg, Scale: 1, Disp: 0x12345},
		{Base: RDI, Index: RCX, Scale: 1, Disp: 0xD401},
		{Base: RAX, Index: RBX, Scale: 8, Disp: -8},
		{Base: RSP, Index: NoReg, Scale: 1, Disp: 0x10},     // forces SIB
		{Base: RBP, Index: NoReg, Scale: 1},                 // forces disp8=0
		{Base: R13, Index: NoReg, Scale: 1},                 // forces disp8=0
		{Base: R12, Index: NoReg, Scale: 1},                 // forces SIB
		{Base: NoReg, Index: NoReg, Scale: 1, Disp: 0x1234}, // absolute
		{Base: NoReg, Index: RDX, Scale: 4, Disp: 0x100},    // index only
		{RIPRel: true, Disp: 0x1000, Base: NoReg, Index: NoReg, Scale: 1},
	}
	for _, m := range mems {
		var a Asm
		a.MovRM(RBX, m)
		in := decodeOne(t, a.Bytes())
		if in.Op != MOV || in.Dst != RBX || !in.HasMem {
			t.Fatalf("mem %v: decoded %v", m, in)
		}
		got := in.M
		if got.RIPRel != m.RIPRel || got.Disp != m.Disp || got.Base != m.Base || got.Index != m.Index {
			t.Fatalf("mem %v round-tripped to %v (bytes %x)", m, got, a.Bytes())
		}
		if m.Index != NoReg && got.Scale != m.Scale {
			t.Fatalf("mem %v scale round-tripped to %d", m, got.Scale)
		}
	}
}

func TestEncodeDecodeALU(t *testing.T) {
	ops := []Op{ADD, SUB, AND, OR, XOR, CMP}
	exts := map[Op]byte{ADD: 0, OR: 1, AND: 4, SUB: 5, XOR: 6, CMP: 7}
	for _, op := range ops {
		var a Asm
		a.AluRR(op, RBX, RSI)
		in := decodeOne(t, a.Bytes())
		if in.Op != op || in.Dst != RBX || in.Src != RSI {
			t.Fatalf("%v: %v", op, in)
		}
		var b Asm
		b.AluRI(op, RDX, 0x1234)
		in = decodeOne(t, b.Bytes())
		if in.Op != op || in.Dst != RDX || !in.HasImm || in.Imm != 0x1234 {
			t.Fatalf("%v imm: %v", op, in)
		}
		// The short form REX.W 83 /n ib, which only the decoder meets.
		in = decodeOne(t, []byte{0x48, 0x83, 0xc0 | exts[op]<<3 | byte(RDX), 0xfb})
		if in.Op != op || in.Imm != -5 {
			t.Fatalf("%v imm8: %v", op, in)
		}
		var d Asm
		d.AluMR(op, Mem{Base: RDI, Index: NoReg, Scale: 1, Disp: 8}, RCX)
		in = decodeOne(t, d.Bytes())
		if in.Op != op || !in.HasMem || !in.MemIsDst || in.Src != RCX {
			t.Fatalf("%v mem-dst: %v", op, in)
		}
	}
}

func TestEncodeDecodeImul(t *testing.T) {
	var a Asm
	a.Imul3(RCX, RDI, 0xD401)
	in := decodeOne(t, a.Bytes())
	if in.Op != IMUL3 || in.Dst != RCX || in.Src != RDI || in.Imm != 0xD401 {
		t.Fatalf("%v", in)
	}
	var b Asm
	b.Imul2(RAX, RBX)
	in = decodeOne(t, b.Bytes())
	if in.Op != IMUL2 || in.Dst != RAX || in.Src != RBX {
		t.Fatalf("%v", in)
	}
}

func TestEncodeDecodeMovImm(t *testing.T) {
	var a Asm
	a.MovRI64(R10, 0x1122334455667788)
	in := decodeOne(t, a.Bytes())
	if in.Op != MOVI || in.Dst != R10 || in.Imm != 0x1122334455667788 {
		t.Fatalf("%v", in)
	}
	var b Asm
	b.MovRI32(RSI, -42)
	in = decodeOne(t, b.Bytes())
	if in.Op != MOVI || in.Dst != RSI || in.Imm != -42 {
		t.Fatalf("%v", in)
	}
}

func TestEncodeDecodeBranches(t *testing.T) {
	var a Asm
	a.JmpRel32(0x1000)
	in := decodeOne(t, a.Bytes())
	if in.Op != JMP || in.Rel != 0x1000 {
		t.Fatalf("%v", in)
	}
	in = decodeOne(t, []byte{0xeb, 0xfc}) // JMP rel8, which only the decoder meets
	if in.Op != JMP || in.Rel != -4 {
		t.Fatalf("%v", in)
	}
	var c Asm
	c.Jcc(CondNE, 0x40)
	in = decodeOne(t, c.Bytes())
	if in.Op != JCC || in.Cond != CondNE || in.Rel != 0x40 {
		t.Fatalf("%v", in)
	}
	var d Asm
	d.CallRel32(0x99)
	in = decodeOne(t, d.Bytes())
	if in.Op != CALL || in.Rel != 0x99 {
		t.Fatalf("%v", in)
	}
}

func TestFieldOffsets(t *testing.T) {
	// REX.W 69 ModRM imm32: imul rcx, rdi, 0xD401.
	var a Asm
	a.Imul3(RCX, RDI, 0xD401)
	in := decodeOne(t, a.Bytes())
	if in.OpcodeOff != 1 || in.ModRMOff != 2 || in.ImmOff != 3 || in.ImmLen != 4 {
		t.Fatalf("field offsets: %+v", in)
	}
	// Displacement offsets with SIB.
	var b Asm
	b.Lea(RBX, Mem{Base: RDI, Index: RCX, Scale: 1, Disp: 0xD401})
	in = decodeOne(t, b.Bytes())
	if in.SIBOff < 0 || in.DispOff != in.SIBOff+1 || in.DispLen != 4 {
		t.Fatalf("sib/disp offsets: %+v", in)
	}
}

func TestDecodeAllStream(t *testing.T) {
	var a Asm
	a.PushReg(RBX)
	a.MovRI32(RBX, 7)
	a.AluRR(ADD, RBX, RBX)
	a.PopReg(RBX)
	a.Ret()
	insts, err := DecodeAll(a.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 5 {
		t.Fatalf("decoded %d instructions, want 5", len(insts))
	}
}

func TestDecodeTruncated(t *testing.T) {
	var a Asm
	a.MovRI64(RAX, 0x1234)
	b := a.Bytes()
	if _, err := Decode(b[:len(b)-1]); err == nil {
		t.Fatal("truncated imm64 decoded")
	}
	if _, err := Decode([]byte{0x48}); err == nil {
		t.Fatal("bare REX decoded")
	}
}

// randMem produces a random valid memory operand.
func randMem(rng *rand.Rand) Mem {
	m := Mem{Base: NoReg, Index: NoReg, Scale: 1}
	if rng.Intn(4) > 0 {
		m.Base = Reg(rng.Intn(16))
	}
	if rng.Intn(3) == 0 {
		for {
			m.Index = Reg(rng.Intn(16))
			if m.Index != RSP {
				break
			}
		}
		m.Scale = 1 << rng.Intn(4)
	}
	if m.Base == NoReg && m.Index == NoReg {
		m.Base = Reg(rng.Intn(16))
	}
	switch rng.Intn(3) {
	case 0:
	case 1:
		m.Disp = int32(int8(rng.Uint32()))
	case 2:
		m.Disp = int32(rng.Uint32())
	}
	return m
}

// TestEncodeDecodeRoundTripProperty encodes random instructions and checks
// the decoder recovers the same operands and consumes exactly the emitted
// bytes.
func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	aluOps := []Op{ADD, SUB, AND, OR, XOR, CMP}
	for i := 0; i < 3000; i++ {
		var a Asm
		form := rng.Intn(10)
		var check func(in Inst) bool
		switch form {
		case 0:
			dst, src := Reg(rng.Intn(16)), Reg(rng.Intn(16))
			a.MovRR(dst, src)
			check = func(in Inst) bool { return in.Op == MOV && in.Dst == dst && in.Src == src }
		case 1:
			dst, m := Reg(rng.Intn(16)), randMem(rng)
			a.MovRM(dst, m)
			check = func(in Inst) bool { return in.Op == MOV && in.Dst == dst && in.HasMem && !in.MemIsDst }
		case 2:
			src, m := Reg(rng.Intn(16)), randMem(rng)
			a.MovMR(m, src)
			check = func(in Inst) bool { return in.Op == MOV && in.Src == src && in.HasMem && in.MemIsDst }
		case 3:
			op := aluOps[rng.Intn(len(aluOps))]
			dst, src := Reg(rng.Intn(16)), Reg(rng.Intn(16))
			a.AluRR(op, dst, src)
			check = func(in Inst) bool { return in.Op == op && in.Dst == dst && in.Src == src }
		case 4:
			op := aluOps[rng.Intn(len(aluOps))]
			dst, imm := Reg(rng.Intn(16)), int32(rng.Uint32())
			a.AluRI(op, dst, imm)
			check = func(in Inst) bool { return in.Op == op && in.Dst == dst && in.Imm == int64(imm) }
		case 5:
			dst, m := Reg(rng.Intn(16)), randMem(rng)
			a.Lea(dst, m)
			check = func(in Inst) bool { return in.Op == LEA && in.Dst == dst && in.HasMem }
		case 6:
			dst, src, imm := Reg(rng.Intn(16)), Reg(rng.Intn(16)), int32(rng.Uint32())
			a.Imul3(dst, src, imm)
			check = func(in Inst) bool {
				return in.Op == IMUL3 && in.Dst == dst && in.Src == src && in.Imm == int64(imm)
			}
		case 7:
			dst, imm := Reg(rng.Intn(16)), int64(rng.Uint64())
			a.MovRI64(dst, imm)
			check = func(in Inst) bool { return in.Op == MOVI && in.Dst == dst && in.Imm == imm }
		case 8:
			r := Reg(rng.Intn(16))
			a.PushReg(r)
			check = func(in Inst) bool { return in.Op == PUSH && in.Dst == r }
		case 9:
			op := aluOps[rng.Intn(len(aluOps))]
			m, src := randMem(rng), Reg(rng.Intn(16))
			a.AluMR(op, m, src)
			check = func(in Inst) bool { return in.Op == op && in.HasMem && in.MemIsDst && in.Src == src }
		}
		in, err := Decode(a.Bytes())
		if err != nil {
			t.Fatalf("iter %d form %d: decode %x: %v", i, form, a.Bytes(), err)
		}
		if in.Len != a.Len() {
			t.Fatalf("iter %d form %d: len %d != %d for %x", i, form, in.Len, a.Len(), a.Bytes())
		}
		if !check(in) {
			t.Fatalf("iter %d form %d: operands lost: %x -> %v", i, form, a.Bytes(), in)
		}
		if !bytes.Equal(in.Raw, a.Bytes()) {
			t.Fatalf("iter %d: raw bytes mismatch", i)
		}
	}
}
