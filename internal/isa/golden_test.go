package isa_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"math/rand"
	"testing"

	"skybridge/internal/core"
	"skybridge/internal/isa"
)

// TestEncodingGolden pins the bytes of the x86 subset: what every Asm
// helper emits, what Decode makes of every (optional REX, opcode, ModRM)
// triple and every 0F second byte, what Encode emits for decoded random
// bytes, and the trampoline page. Each part hashes to one SHA-256
// constant; a change that moves one encoding, decoded field or field
// offset fails here and names the part.
func TestEncodingGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("decodes about four million inputs; CI runs it without -race")
	}
	for _, c := range []struct {
		name string
		run  func(w io.Writer)
		want string
	}{
		{"asm", goldenAsm, "656a14196302f05209c17b6d3f845aeab703878fe24675cac0b14d917745416c"},
		{"decode", goldenDecode, "0e737d46c1954c67712e0d29ee85263b119112cd18cdca06ddd455b23210295a"},
		{"encode", goldenEncode, "62fa9f4773b1c2ce4d71ea0fee9071c3e2c190685e7b73dcfa6be56e33ce7245"},
		{"trampoline", func(w io.Writer) { w.Write(core.TrampolineCode()) }, "48b9a45f9798ec2252b6c810017692f8c81f9da7c0e5f1f9a78f58578ebe13bb"},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := sha256.New()
			w := bufio.NewWriterSize(h, 1<<16)
			c.run(w)
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
				t.Errorf("%s encodings moved: sha256 %s, want %s", c.name, got, c.want)
			}
		})
	}
}

var (
	goldenRegs = []isa.Reg{
		isa.RAX, isa.RCX, isa.RDX, isa.RBX, isa.RSP, isa.RBP, isa.RSI, isa.RDI,
		isa.R8, isa.R9, isa.R10, isa.R11, isa.R12, isa.R13, isa.R14, isa.R15,
	}
	goldenALU = []isa.Op{isa.ADD, isa.OR, isa.AND, isa.SUB, isa.XOR, isa.CMP}
	// goldenImm32 sits at the 8- and 32-bit edges; the last two hold the
	// VMFUNC bytes 0F 01 D4.
	goldenImm32 = []int32{0, 1, -1, 127, 128, -128, -129, 0x7fffffff, -0x80000000, 0x00d4010f, 0x0fd4010f}
	goldenImm64 = []int64{0, -1, 0x7fffffff, -0x80000000, 1 << 32, 0x7fffffffffffffff, -0x8000000000000000, 0x110fd4010f22, 0x000f01d400000000}
	goldenDisps = []int32{0, 1, -1, 127, -128, 128, -129, 0x7fffffff, -0x80000000, 0x00d4010f}
)

// goldenMems returns memory operands over every base (none, RSP and R12,
// which need a SIB, RBP and R13, which need a disp8), each displacement
// width, each index and scale, and RIP-relative. Operands without an index
// rotate through the scales too, because the SIB a base of RSP or R12
// forces carries the scale bits.
func goldenMems() []isa.Mem {
	var ms []isa.Mem
	bases := append([]isa.Reg{isa.NoReg}, goldenRegs...)
	scales := []int{0, 1, 2, 4, 8}
	for i, b := range bases {
		for j, d := range goldenDisps {
			ms = append(ms, isa.Mem{Base: b, Index: isa.NoReg, Scale: scales[(i+j)%len(scales)], Disp: d})
		}
	}
	for i, x := range goldenRegs {
		if x == isa.RSP {
			continue
		}
		for j, s := range []int{1, 2, 4, 8} {
			k := i*4 + j
			ms = append(ms, isa.Mem{Base: bases[k%len(bases)], Index: x, Scale: s, Disp: goldenDisps[k%len(goldenDisps)]})
		}
	}
	for _, d := range goldenDisps {
		ms = append(ms, isa.Mem{RIPRel: true, Base: isa.NoReg, Index: isa.NoReg, Scale: 1, Disp: d})
	}
	return ms
}

// goldenAsm hashes every Asm helper's bytes over all 16 registers, the
// memory operands of goldenMems and the immediates above, one
// length-prefixed instruction at a time. The short immediate and branch
// forms (83 ib, 6B ib, EB cb) are the decoder's alone; the decode sweep
// covers them.
func goldenAsm(w io.Writer) {
	emit := func(f func(a *isa.Asm)) {
		var a isa.Asm
		f(&a)
		w.Write([]byte{byte(a.Len())})
		w.Write(a.Bytes())
	}
	emit((*isa.Asm).Nop)
	emit((*isa.Asm).Vmfunc)
	emit((*isa.Asm).Syscall)
	emit((*isa.Asm).Ret)
	emit((*isa.Asm).Int3)
	emit((*isa.Asm).Hlt)
	mems := goldenMems()
	for _, r := range goldenRegs {
		emit(func(a *isa.Asm) { a.PushReg(r) })
		emit(func(a *isa.Asm) { a.PopReg(r) })
		for _, s := range goldenRegs {
			emit(func(a *isa.Asm) { a.MovRR(r, s) })
			emit(func(a *isa.Asm) { a.TestRR(r, s) })
			emit(func(a *isa.Asm) { a.Imul2(r, s) })
			for _, op := range goldenALU {
				emit(func(a *isa.Asm) { a.AluRR(op, r, s) })
				emit(func(a *isa.Asm) { a.Alu32RR(op, r, s) })
			}
			for _, imm := range goldenImm32 {
				emit(func(a *isa.Asm) { a.Imul3(r, s, imm) })
			}
		}
		for _, imm := range goldenImm32 {
			emit(func(a *isa.Asm) { a.MovRI32(r, imm) })
			for _, op := range goldenALU {
				emit(func(a *isa.Asm) { a.AluRI(op, r, imm) })
			}
		}
		for _, imm := range goldenImm64 {
			emit(func(a *isa.Asm) { a.MovRI64(r, imm) })
		}
		for _, m := range mems {
			emit(func(a *isa.Asm) { a.MovRM(r, m) })
			emit(func(a *isa.Asm) { a.MovMR(m, r) })
			emit(func(a *isa.Asm) { a.TestMR(m, r) })
			emit(func(a *isa.Asm) { a.Imul2M(r, m) })
			emit(func(a *isa.Asm) { a.Lea(r, m) })
			for _, op := range goldenALU {
				emit(func(a *isa.Asm) { a.AluRM(op, r, m) })
				emit(func(a *isa.Asm) { a.AluMR(op, m, r) })
			}
			for _, imm := range goldenImm32[len(goldenImm32)-4:] {
				emit(func(a *isa.Asm) { a.Imul3M(r, m, imm) })
			}
		}
	}
	for _, m := range mems {
		for _, imm := range goldenImm32 {
			emit(func(a *isa.Asm) { a.MovMI32(m, imm) })
			for _, op := range goldenALU {
				emit(func(a *isa.Asm) { a.AluMI(op, m, imm) })
			}
		}
	}
	for _, rel := range goldenImm32 {
		emit(func(a *isa.Asm) { a.JmpRel32(rel) })
		emit(func(a *isa.Asm) { a.CallRel32(rel) })
		for c := isa.CondO; c <= isa.CondG; c++ {
			emit(func(a *isa.Asm) { a.Jcc(c, rel) })
		}
	}
}

// goldenDecode hashes Decode over every optional REX prefix, opcode and
// ModRM byte, and over every REX, 0F second byte and the byte after it,
// each followed by two random 12-byte tails that vary the SIB,
// displacement and immediate bytes.
func goldenDecode(w io.Writer) {
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, 0, 16)
	var rec []byte
	for rex := 0x3f; rex <= 0x4f; rex++ { // 0x3f: no prefix
		for op := 0; op < 256; op++ {
			for esc := 0; esc < 2; esc++ {
				for m := 0; m < 256; m++ {
					for tail := 0; tail < 2; tail++ {
						buf = buf[:0]
						if rex >= 0x40 {
							buf = append(buf, byte(rex))
						}
						if esc == 1 {
							buf = append(buf, 0x0f)
						}
						buf = append(buf, byte(op), byte(m))
						buf = binary.LittleEndian.AppendUint64(buf, rng.Uint64())
						buf = binary.LittleEndian.AppendUint32(buf, rng.Uint32())
						in, err := isa.Decode(buf)
						rec = appendDecoded(rec[:0], in, err)
						w.Write(rec)
					}
				}
			}
		}
	}
}

// goldenEncode hashes Encode's bytes for the decodable ones of a million
// random 15-byte inputs, half of them behind a REX prefix.
func goldenEncode(w io.Writer) {
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, 15)
	for i := 0; i < 1_000_000; i++ {
		for j := range buf {
			buf[j] = byte(rng.Uint32())
		}
		if i%2 == 0 {
			buf[0] = 0x40 | buf[0]&0x0f
		}
		in, err := isa.Decode(buf)
		if err != nil {
			continue
		}
		var a isa.Asm
		if err := a.Encode(in); err != nil {
			w.Write([]byte{0})
			continue
		}
		w.Write([]byte{byte(a.Len())})
		w.Write(a.Bytes())
	}
}

// appendDecoded appends one Decode result: a zero byte for a failure, or
// every field of the instruction.
func appendDecoded(b []byte, in isa.Inst, err error) []byte {
	if err != nil {
		return append(b, 0)
	}
	b = append(b, 1)
	flag := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	for _, v := range []int64{
		int64(in.Op), int64(in.Len), int64(in.Cond), int64(in.Dst), int64(in.Src),
		int64(in.M.Base), int64(in.M.Index), int64(in.M.Scale), int64(in.M.Disp), flag(in.M.RIPRel),
		flag(in.HasMem), flag(in.MemIsDst), in.Imm, flag(in.HasImm), int64(in.Rel), flag(in.Bits32),
		int64(in.OpcodeOff), int64(in.OpcodeLen), int64(in.ModRMOff), int64(in.SIBOff),
		int64(in.DispOff), int64(in.DispLen), int64(in.ImmOff), int64(in.ImmLen),
		int64(len(in.Raw)),
	} {
		b = binary.AppendVarint(b, v)
	}
	return append(b, in.Raw...)
}
