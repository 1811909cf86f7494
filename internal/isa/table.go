package isa

import (
	"encoding/binary"
	"fmt"
)

// operands says how a form's operands travel in its encoding.
type operands uint8

const (
	argNone    operands = iota // no operands
	argPlusR                   // register in the last opcode byte's low 3 bits (REX.B extends it)
	argRMDst                   // ModRM: r/m is the destination, reg the source
	argRegDst                  // ModRM: reg is the destination, r/m the source
	argExt                     // ModRM with a /n opcode extension: r/m is the only register operand
	argSkip                    // ModRM read for its length only (the long NOP)
	argRel                     // branch displacement
	argCondRel                 // condition in the last opcode byte's low 4 bits, then a branch displacement
)

// wRule is what a form asks of REX.W.
type wRule uint8

const (
	wAny   wRule = iota // ignored
	wSet                // required: 64-bit operands
	wClear              // absent: the 32-bit ALU form, which sets Bits32
)

// REX prefix bits.
const (
	rexB = 1 << iota // extends ModRM r/m, SIB base or a +r register
	rexX             // extends SIB index
	rexR             // extends ModRM reg
	rexW             // 64-bit operand size
)

// rmRule restricts a ModRM form's r/m operand.
type rmRule uint8

const (
	rmAny rmRule = iota
	rmReg        // register only
	rmMem        // memory only
)

// A form is one row of the encoding table: one way an operation is encoded.
type form struct {
	op   Op
	code []byte // opcode bytes; a +r or +cc form gives the last byte's base
	args operands
	ext  byte // the /n of an argExt form
	imm  int  // immediate or branch displacement width in bytes
	w    wRule
	rm   rmRule
}

// forms is the encoding table of the subset. Decode accepts every row.
// Encode emits the first row of an operation that fits the instruction, so
// each operation lists its canonical long form (imm32, rel32, MOVABS
// imm64) before the short forms only the decoder meets (83 ib, 6B ib, EB
// cb). The rewriter's moved-instruction arithmetic relies on those lengths.
var forms = append([]form{
	{op: NOP, code: []byte{0x90}},
	{op: NOP, code: []byte{0x0f, 0x1f}, args: argSkip},
	{op: VMFUNC, code: []byte{0x0f, 0x01, 0xd4}},
	{op: SYSCALL, code: []byte{0x0f, 0x05}},
	{op: RET, code: []byte{0xc3}},
	{op: INT3, code: []byte{0xcc}},
	{op: HLT, code: []byte{0xf4}},
	{op: PUSH, code: []byte{0x50}, args: argPlusR},
	{op: POP, code: []byte{0x58}, args: argPlusR},
	{op: MOV, code: []byte{0x89}, args: argRMDst, w: wSet},
	{op: MOV, code: []byte{0x8b}, args: argRegDst, w: wSet},
	{op: MOVI, code: []byte{0xc7}, args: argExt, imm: 4, w: wSet},
	{op: MOVI, code: []byte{0xb8}, args: argPlusR, imm: 8, w: wSet},
	{op: TEST, code: []byte{0x85}, args: argRMDst, w: wSet},
	{op: IMUL2, code: []byte{0x0f, 0xaf}, args: argRegDst, w: wSet},
	{op: IMUL3, code: []byte{0x69}, args: argRegDst, imm: 4, w: wSet},
	{op: IMUL3, code: []byte{0x6b}, args: argRegDst, imm: 1, w: wSet},
	{op: LEA, code: []byte{0x8d}, args: argRegDst, w: wSet, rm: rmMem},
	{op: JMP, code: []byte{0xe9}, args: argRel, imm: 4},
	{op: JMP, code: []byte{0xeb}, args: argRel, imm: 1},
	{op: CALL, code: []byte{0xe8}, args: argRel, imm: 4},
	{op: JCC, code: []byte{0x0f, 0x80}, args: argCondRel, imm: 4},
}, aluForms()...)

// aluForms returns the six rows each ALU operation has: base+1 /r with r/m
// as destination, in 64-bit and in 32-bit register form, base+3 /r with
// reg as destination, likewise, and 81 /n id and 83 /n ib.
func aluForms() []form {
	var fs []form
	for _, a := range []struct {
		op        Op
		base, ext byte
	}{{ADD, 0x00, 0}, {OR, 0x08, 1}, {AND, 0x20, 4}, {SUB, 0x28, 5}, {XOR, 0x30, 6}, {CMP, 0x38, 7}} {
		fs = append(fs,
			form{op: a.op, code: []byte{a.base + 1}, args: argRMDst, w: wSet},
			form{op: a.op, code: []byte{a.base + 1}, args: argRMDst, w: wClear, rm: rmReg},
			form{op: a.op, code: []byte{a.base + 3}, args: argRegDst, w: wSet},
			form{op: a.op, code: []byte{a.base + 3}, args: argRegDst, w: wClear, rm: rmReg},
			form{op: a.op, code: []byte{0x81}, args: argExt, ext: a.ext, imm: 4, w: wSet},
			form{op: a.op, code: []byte{0x83}, args: argExt, ext: a.ext, imm: 1, w: wSet},
		)
	}
	return fs
}

var (
	// byOpcode indexes the table by first opcode byte, or by 0x100 | the
	// second byte after an 0F escape.
	byOpcode [0x200][]*form
	// byOp indexes the table by operation, in table order.
	byOp [HLT + 1][]*form
)

func init() {
	for i := range forms {
		f := &forms[i]
		byOp[f.op] = append(byOp[f.op], f)
		key := int(f.code[0])
		if key == 0x0f {
			key = 0x100 | int(f.code[1])
		}
		n := 1
		switch f.args {
		case argPlusR:
			n = 8
		case argCondRel:
			n = 16
		}
		for k := key; k < key+n; k++ {
			byOpcode[k] = append(byOpcode[k], f)
		}
	}
}

func (f *form) hasModRM() bool {
	return f.args == argRMDst || f.args == argRegDst || f.args == argExt || f.args == argSkip
}

func (f *form) branch() bool { return f.args == argRel || f.args == argCondRel }

// DecodeError reports an undecodable byte sequence.
type DecodeError struct {
	Off  int
	Byte byte
	Msg  string
}

// Error implements the error interface.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("isa: cannot decode at +%d (byte %#02x): %s", e.Off, e.Byte, e.Msg)
}

// decoder is the cursor of one Decode.
type decoder struct {
	b   []byte
	off int
	rex byte // the REX prefix, or 0
	in  *Inst
}

func (d *decoder) err(msg string) error {
	e := &DecodeError{Off: d.off, Msg: msg}
	if d.off < len(d.b) {
		e.Byte = d.b[d.off]
	}
	return e
}

func (d *decoder) next() (byte, error) {
	if d.off >= len(d.b) {
		return 0, d.err("truncated instruction")
	}
	d.off++
	return d.b[d.off-1], nil
}

// field reads an n-byte little-endian field, sign-extended.
func (d *decoder) field(n int) (int64, error) {
	if d.off+n > len(d.b) {
		return 0, d.err("truncated instruction")
	}
	var v uint64
	for i := n - 1; i >= 0; i-- {
		v = v<<8 | uint64(d.b[d.off+i])
	}
	d.off += n
	return int64(v<<(64-8*n)) >> (64 - 8*n), nil
}

// reg extends a 3-bit register field by the REX bit bit.
func (d *decoder) reg(low, bit byte) Reg {
	r := Reg(low & 7)
	if d.rex&bit != 0 {
		r += 8
	}
	return r
}

// accepts reports whether the bytes after the opcode byte the index was
// looked up by fit f: its remaining opcode byte, REX.W rule, /n and r/m
// kind.
func (d *decoder) accepts(f *form) bool {
	rest := d.b[d.off:]
	if len(f.code) == 3 && (len(rest) == 0 || rest[0] != f.code[2]) {
		return false
	}
	if f.w != wAny && (f.w == wSet) != (d.rex&rexW != 0) {
		return false
	}
	if f.args == argExt || f.rm != rmAny {
		if len(rest) == 0 {
			return false
		}
		mod, regField := rest[0]>>6, rest[0]>>3&7
		if f.args == argExt && regField != f.ext || f.rm == rmReg && mod != 3 || f.rm == rmMem && mod == 3 {
			return false
		}
	}
	return true
}

// Decode decodes the instruction at the start of b. Unrecognized encodings
// return a *DecodeError. The returned Inst records the offsets of every
// encoding field, which the VMFUNC rewriter relies on.
func Decode(b []byte) (Inst, error) {
	var in Inst
	if err := decode(b, &in); err != nil {
		return Inst{}, err
	}
	return in, nil
}

func decode(b []byte, in *Inst) error {
	*in = Inst{Dst: NoReg, Src: NoReg, ModRMOff: -1, SIBOff: -1, DispOff: -1, ImmOff: -1}
	d := decoder{b: b, in: in}
	c, err := d.next()
	if err != nil {
		return err
	}
	if c&0xf0 == 0x40 {
		d.rex = c
		if c, err = d.next(); err != nil {
			return err
		}
	}
	in.OpcodeOff = d.off - 1
	key := int(c)
	if c == 0x0f {
		if c, err = d.next(); err != nil {
			return err
		}
		key = 0x100 | int(c)
	}
	var f *form
	for _, g := range byOpcode[key] {
		if d.accepts(g) {
			f = g
			break
		}
	}
	if f == nil {
		return d.err("unsupported encoding")
	}
	d.off = in.OpcodeOff + len(f.code)
	in.OpcodeLen = len(f.code)
	switch f.args {
	case argPlusR:
		in.Dst = d.reg(c, rexB)
	case argCondRel:
		in.Cond = Cond(c & 0x0f)
	case argRMDst, argRegDst, argExt, argSkip:
		if err := d.modRM(f); err != nil {
			return err
		}
	}
	if f.imm > 0 {
		in.ImmOff, in.ImmLen = d.off, f.imm
		v, err := d.field(f.imm)
		if err != nil {
			return err
		}
		if f.branch() {
			in.Rel = int32(v)
		} else {
			in.Imm, in.HasImm = v, true
		}
	}
	in.Op, in.Len, in.Bits32 = f.op, d.off, f.w == wClear
	in.Raw = append([]byte(nil), b[:d.off]...)
	return nil
}

// modRM decodes ModRM (+SIB, +displacement) into f's operands, recording
// the field offsets.
func (d *decoder) modRM(f *form) error {
	in := d.in
	in.ModRMOff = d.off
	mb, err := d.next()
	if err != nil {
		return err
	}
	mod, rm := mb>>6, mb&7
	switch f.args {
	case argRMDst:
		in.Src = d.reg(mb>>3, rexR)
	case argRegDst:
		in.Dst = d.reg(mb>>3, rexR)
	}
	rmIsDst := f.args != argRegDst
	if mod == 3 {
		switch r := d.reg(rm, rexB); {
		case f.args == argSkip:
		case rmIsDst:
			in.Dst = r
		default:
			in.Src = r
		}
		return nil
	}
	m := Mem{Base: NoReg, Index: NoReg, Scale: 1}
	dispLen := [...]int{0, 1, 4}[mod]
	switch {
	case rm == 4:
		in.SIBOff = d.off
		sib, err := d.next()
		if err != nil {
			return err
		}
		if idx := sib >> 3 & 7; idx != 4 || d.rex&rexX != 0 { // index 100 without REX.X is none
			m.Index, m.Scale = d.reg(idx, rexX), 1<<(sib>>6)
		}
		if sib&7 == 5 && mod == 0 {
			dispLen = 4 // no base, disp32
		} else {
			m.Base = d.reg(sib, rexB)
		}
	case rm == 5 && mod == 0:
		m.RIPRel, dispLen = true, 4
	default:
		m.Base = d.reg(rm, rexB)
	}
	if dispLen > 0 {
		in.DispOff, in.DispLen = d.off, dispLen
		v, err := d.field(dispLen)
		if err != nil {
			return err
		}
		m.Disp = int32(v)
	}
	if f.args != argSkip {
		in.M, in.HasMem, in.MemIsDst = m, true, rmIsDst
	}
	return nil
}

// DecodeAll linearly decodes an entire byte stream, returning the decoded
// instructions. It fails if any byte sequence is undecodable — code pages
// handed to the rewriter must consist entirely of supported instructions.
func DecodeAll(b []byte) ([]Inst, error) {
	var out []Inst
	for off := 0; off < len(b); {
		var in Inst
		if err := decode(b[off:], &in); err != nil {
			if de, ok := err.(*DecodeError); ok {
				de.Off += off
			}
			return out, err
		}
		out = append(out, in)
		off += in.Len
	}
	return out, nil
}

// fits reports whether f encodes in: the operand size matches, f has an
// immediate exactly when in does (a branch always has its displacement),
// at least as wide as in.ImmLen, and a memory operand travels as r/m on
// the side in.MemIsDst names.
func (f *form) fits(in *Inst) bool {
	switch {
	case (f.w == wClear) != in.Bits32, f.imm > 0 && f.imm < in.ImmLen:
		return false
	case !f.branch() && (f.imm > 0) != in.HasImm:
		return false
	case !in.HasMem:
		return f.rm != rmMem
	case f.rm == rmReg:
		return false
	case f.args == argRMDst, f.args == argExt:
		return in.MemIsDst
	}
	return f.args == argRegDst && !in.MemIsDst
}

// Encode appends the encoding of a (possibly modified) decoded instruction:
// the first table row of its operation that fits its operands, or returns
// an error when none does. The rewriter decodes an instruction,
// substitutes registers or operand values, and calls Encode to produce the
// replacement bytes. Branches are emitted with the Rel stored on the Inst
// — callers adjust Rel when moving an instruction to a new address. A NOP
// re-encodes as Len one-byte NOPs.
func (a *Asm) Encode(in Inst) error { return a.encode(&in) }

func (a *Asm) encode(in *Inst) error {
	if in.Op == NOP {
		for i := 0; i < max(in.Len, 1); i++ {
			a.buf = append(a.buf, 0x90)
		}
		return nil
	}
	if in.Op < 0 || int(in.Op) >= len(byOp) {
		return fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	for _, f := range byOp[in.Op] {
		if f.fits(in) {
			a.emit(f, in)
			return nil
		}
	}
	return fmt.Errorf("isa: no %v form fits the operands", in.Op)
}

// emit appends in's encoding under f: REX when it carries a bit, the
// opcode, ModRM (+SIB, +displacement) and the immediate or displacement.
func (a *Asm) emit(f *form, in *Inst) {
	reg, rm := in.Src, in.Dst // the ModRM reg and r/m (or +r) registers
	switch f.args {
	case argRegDst:
		reg, rm = in.Dst, in.Src
	case argExt:
		reg = Reg(f.ext)
	case argPlusR:
		reg = RAX
	case argNone, argRel, argCondRel:
		reg, rm = RAX, RAX
	}
	rex := byte(0)
	if f.w == wSet {
		rex |= rexW
	}
	if reg >= R8 {
		rex |= rexR
	}
	if in.HasMem {
		if in.M.Index >= R8 {
			rex |= rexX
		}
		rm = in.M.Base
	}
	if rm >= R8 {
		rex |= rexB
	}
	if rex != 0 {
		a.buf = append(a.buf, 0x40|rex)
	}
	a.buf = append(a.buf, f.code...)
	switch f.args {
	case argPlusR:
		a.buf[len(a.buf)-1] += byte(in.Dst) & 7
	case argCondRel:
		a.buf[len(a.buf)-1] += byte(in.Cond)
	}
	if f.hasModRM() {
		if in.HasMem {
			a.emitMem(byte(reg), &in.M)
		} else {
			a.buf = append(a.buf, modRM(3, byte(reg), byte(rm)))
		}
	}
	v := in.Imm
	if f.branch() {
		v = int64(in.Rel)
	}
	a.le(v, f.imm)
}

// le appends the low n bytes of v, little-endian.
func (a *Asm) le(v int64, n int) {
	switch n {
	case 1:
		a.buf = append(a.buf, byte(v))
	case 4:
		a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(v))
	case 8:
		a.buf = binary.LittleEndian.AppendUint64(a.buf, uint64(v))
	}
}

func modRM(mod, reg, rm byte) byte { return mod<<6 | (reg&7)<<3 | rm&7 }

// emitMem appends ModRM (+SIB, +displacement) for a memory operand, in its
// shortest form: no displacement when it is zero (except on an RBP or R13
// base), disp8 when it fits, and a SIB only for an index, an absolute
// address or an RSP or R12 base. A SIB carries m.Scale even without an
// index.
func (a *Asm) emitMem(reg byte, m *Mem) {
	if m.RIPRel {
		a.buf = append(a.buf, modRM(0, reg, 5))
		a.le(int64(m.Disp), 4)
		return
	}
	if m.Index == RSP {
		panic("isa: rsp cannot be an index register")
	}
	var ss byte
	switch m.Scale {
	case 0, 1:
	case 2:
		ss = 1
	case 4:
		ss = 2
	case 8:
		ss = 3
	default:
		panic(fmt.Sprintf("isa: bad scale %d", m.Scale))
	}
	var mod byte
	switch {
	case m.Base == NoReg, m.Disp == 0 && m.Base != RBP && m.Base != R13:
	case m.Disp >= -128 && m.Disp <= 127:
		mod = 1
	default:
		mod = 2
	}
	if m.Index != NoReg || m.Base == NoReg || m.Base == RSP || m.Base == R12 {
		idx, base := byte(4), byte(5) // none, and no base
		if m.Index != NoReg {
			idx = byte(m.Index)
		}
		if m.Base != NoReg {
			base = byte(m.Base)
		}
		a.buf = append(a.buf, modRM(mod, reg, 4), ss<<6|(idx&7)<<3|base&7)
		if m.Base == NoReg {
			a.le(int64(m.Disp), 4)
			return
		}
	} else {
		a.buf = append(a.buf, modRM(mod, reg, byte(m.Base)))
	}
	a.le(int64(m.Disp), [...]int{0, 1, 4}[mod])
}
