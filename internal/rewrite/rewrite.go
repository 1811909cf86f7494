package rewrite

import (
	"fmt"

	"skybridge/internal/isa"
)

// Result is the output of Rewrite.
type Result struct {
	// Code is the rewritten code page content (same length as the input).
	Code []byte
	// RewritePage is the content of the rewriting page mapped at
	// RewriteBase. Empty if everything was fixable in place.
	RewritePage []byte
	// Fixed lists the occurrences that were neutralized, in fix order.
	Fixed []Occurrence
}

// CaseCounts tallies fixed occurrences by overlap case.
func (r *Result) CaseCounts() map[Case]int {
	m := make(map[Case]int)
	for _, o := range r.Fixed {
		m[o.Case]++
	}
	return m
}

// Rewriter rewrites one process's code so that no executable byte sequence
// equals the VMFUNC encoding. CodeBase is the virtual address the code page
// is mapped at; RewriteBase is the virtual address of the rewriting page.
type Rewriter struct {
	CodeBase    uint64
	RewriteBase uint64
}

// maxFixes bounds the fix loop (a safety net against pathological inputs).
const maxFixes = 1024

// New returns a Rewriter with the conventional rewriting page at 0x1000.
func New(codeBase uint64) *Rewriter {
	return &Rewriter{CodeBase: codeBase, RewriteBase: DefaultRewriteBase}
}

// scratchCandidates are registers usable as temporaries: callee-clobbered
// choices avoiding RSP/RBP (stack discipline), R12/R13 (ModRM special
// cases), and anything whose low 3 bits are 111 (would re-create the 0F
// ModRM/SIB byte: RDI, R15).
var scratchCandidates = []isa.Reg{
	isa.RAX, isa.RBX, isa.RCX, isa.RDX, isa.RSI,
	isa.R8, isa.R9, isa.R10, isa.R11, isa.R14,
}

// deltaCandidates are the perturbations tried when splitting displacements
// and immediates; splits are verified by re-scanning, so the values only
// need to be diverse.
var deltaCandidates = []int64{
	0x101, 0x1111, 0x11111, 0x31313, 0x777, 0x123, 0x7f, 0x80,
	-0x101, -0x1111, -0x777, 0x2222, 0x4444, 0x12345, 0x54321, 0x6666,
}

// pickScratch returns the attempt-th scratch register not conflicting with
// the instruction's operands.
func pickScratch(in isa.Inst, attempt int) (isa.Reg, error) {
	used := map[isa.Reg]bool{in.Dst: true, in.Src: true}
	if in.HasMem {
		used[in.M.Base] = true
		used[in.M.Index] = true
	}
	var avail []isa.Reg
	for _, r := range scratchCandidates {
		if !used[r] {
			avail = append(avail, r)
		}
	}
	if len(avail) == 0 {
		return 0, fmt.Errorf("rewrite: no scratch register available for %v", in)
	}
	return avail[attempt%len(avail)], nil
}

// Rewrite scans code and fixes every occurrence of the pattern. The
// returned code has identical length to the input (displaced windows are
// replaced by a jump plus INT3 padding); replacement snippets live on the
// rewriting page.
func (rw *Rewriter) Rewrite(code []byte) (*Result, error) {
	out := append([]byte(nil), code...)
	res := &Result{}
	for iter := 0; ; iter++ {
		if iter > maxFixes {
			return nil, fmt.Errorf("rewrite: fix loop did not converge after %d fixes", iter)
		}
		occs, err := Scan(out)
		if err != nil {
			return nil, err
		}
		if len(occs) == 0 {
			break
		}
		o := occs[0]
		if err := rw.fix(out, &res.RewritePage, o); err != nil {
			return nil, err
		}
		res.Fixed = append(res.Fixed, o)
	}
	// Security invariant: no raw pattern anywhere executable.
	if offs := FindPattern(out); len(offs) > 0 {
		return nil, fmt.Errorf("rewrite: pattern survives in code at %v", offs)
	}
	if offs := FindPattern(res.RewritePage); len(offs) > 0 {
		return nil, fmt.Errorf("rewrite: pattern survives in rewriting page at %v", offs)
	}
	res.Code = out
	return res, nil
}

// fix neutralizes one occurrence in place or by displacement to the
// rewriting page.
func (rw *Rewriter) fix(out []byte, page *[]byte, o Occurrence) error {
	if o.Case == CaseOpcode {
		// Table 3 row 1: a literal VMFUNC is replaced by three NOPs.
		copy(out[o.InstOff:o.InstOff+3], []byte{0x90, 0x90, 0x90})
		return nil
	}

	// Determine the displacement window [ws, we).
	ws := o.InstOff
	we := o.InstOff + o.Inst.Len
	if o.Case == CaseSpanning {
		we = o.SpanEnd
	}
	// The window must hold a 5-byte JMP rel32.
	for we-ws < 5 {
		in, err := isa.Decode(out[we:])
		if err != nil {
			return fmt.Errorf("rewrite: cannot grow window past +%d: %w", we, err)
		}
		we += in.Len
	}
	// Branch-immediate and RIP-relative-displacement occurrences are fixed
	// by moving the instruction (its rel32/disp32 is recomputed at the new
	// address — Table 3's "modify immediate after moving this
	// instruction"); everything else gets an explicit replacement.
	selfMoved := o.Case == CaseSpanning ||
		(o.Case == CaseImm && (o.Inst.Op == isa.JMP || o.Inst.Op == isa.CALL || o.Inst.Op == isa.JCC)) ||
		(o.Case == CaseDisp && o.Inst.M.RIPRel)

	// Collect the instructions the window displaces. For self-moved cases
	// that includes the offending instruction(s) themselves.
	var moved []movedInst
	cursor := o.InstOff + o.Inst.Len
	if selfMoved {
		cursor = ws
	}
	for cursor < we {
		in, err := isa.Decode(out[cursor:])
		if err != nil {
			return err
		}
		moved = append(moved, movedInst{in: in, origOff: cursor})
		cursor += in.Len
	}

	for attempt := 0; attempt < 64; attempt++ {
		var a isa.Asm
		snipVA := rw.RewriteBase + uint64(len(*page)) + uint64(attempt%8) // pad varies snippet VA
		pad := attempt % 8

		emitErr := func() error {
			if !selfMoved {
				if err := emitReplacement(&a, o, attempt); err != nil {
					return err
				}
			}
			for _, mi := range moved {
				if err := rw.emitMoved(&a, mi, snipVA); err != nil {
					return err
				}
				a.Nop() // break any byte pattern spanning moved instructions
			}
			// Jump back to the first instruction after the window.
			backTarget := rw.CodeBase + uint64(we)
			a.JmpRel32(int32(int64(backTarget) - int64(snipVA+uint64(a.Len())+5)))
			return nil
		}()
		if emitErr != nil {
			if attempt < 63 {
				continue
			}
			return emitErr
		}

		// Build the in-code patch: JMP snippet + INT3 fill.
		var patch isa.Asm
		patch.JmpRel32(int32(int64(snipVA) - int64(rw.CodeBase+uint64(ws)+5)))
		for patch.Len() < we-ws {
			patch.Int3()
		}

		// Verify cleanliness of the new snippet (with page context) and of
		// the patched window (with 2-byte margins into neighbours).
		newPage := append(append(append([]byte(nil), *page...), nops(pad)...), a.Bytes()...)
		lo, hi := ws-2, we+2
		if lo < 0 {
			lo = 0
		}
		if hi > len(out) {
			hi = len(out)
		}
		region := append(append([]byte(nil), out[lo:ws]...), patch.Bytes()...)
		region = append(region, out[we:hi]...)
		if len(FindPattern(newPage)) == 0 && len(FindPattern(region)) == 0 {
			*page = newPage
			copy(out[ws:we], patch.Bytes())
			return nil
		}
	}
	return fmt.Errorf("rewrite: could not find a clean rewriting for %v at +%d (case %v)", o.Inst, o.Off, o.Case)
}

func nops(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = 0x90
	}
	return b
}

type movedInst struct {
	in      isa.Inst
	origOff int
}

// emitMoved re-emits an instruction at its new location on the rewriting
// page, preserving semantics: branch displacements and RIP-relative
// displacements are recomputed against the instruction's new address.
func (rw *Rewriter) emitMoved(a *isa.Asm, mi movedInst, snipVA uint64) error {
	in := mi.in
	origVA := rw.CodeBase + uint64(mi.origOff)
	curVA := snipVA + uint64(a.Len())

	switch {
	case in.Op == isa.JMP || in.Op == isa.CALL || in.Op == isa.JCC:
		target := int64(origVA) + int64(in.Len) + int64(in.Rel)
		newLen := 5 // E9/E8 + rel32
		if in.Op == isa.JCC {
			newLen = 6
		}
		in.Rel = int32(target - int64(curVA) - int64(newLen))
		return a.Encode(in)
	case in.HasMem && in.M.RIPRel:
		target := int64(origVA) + int64(in.Len) + int64(in.M.Disp)
		// Trial-encode to learn the new length (disp32 is fixed-width, so
		// length is stable across disp values).
		var trial isa.Asm
		t := in
		t.M.Disp = 0
		if err := trial.Encode(t); err != nil {
			return err
		}
		in.M.Disp = int32(target - int64(curVA) - int64(trial.Len()))
		return a.Encode(in)
	default:
		return a.Encode(in)
	}
}

// emitReplacement emits the functionally equivalent expansion of the
// offending instruction, per Table 3.
func emitReplacement(a *isa.Asm, o Occurrence, attempt int) error {
	in := o.Inst
	switch o.Case {
	case CaseModRM, CaseSIB:
		// Rows 2-3: "push/pop used register; use new register". The 0F
		// ModRM/SIB byte encodes a base register of rdi/r15; copying the
		// base into a scratch register changes the byte. The scratch is
		// never RSP, so the push does not move the operand.
		scratch, err := pickScratch(in, attempt)
		if err != nil {
			return err
		}
		if !in.HasMem || in.M.Base == isa.NoReg {
			return fmt.Errorf("rewrite: %v classified %v but has no base register", in, o.Case)
		}
		a.PushReg(scratch)
		a.MovRR(scratch, in.M.Base)
		sub := in
		sub.M.Base = scratch
		if err := a.Encode(sub); err != nil {
			return err
		}
		a.PopReg(scratch)
		return nil

	case CaseDisp:
		return emitDispSplit(a, in, attempt)

	case CaseImm:
		return emitImmRewrite(a, in, attempt)
	}
	return fmt.Errorf("rewrite: no replacement strategy for case %v", o.Case)
}

// adjustRSPBase compensates a memory operand based on RSP for the PUSH that
// precedes it inside a push/pop bracket (RSP is 8 lower there).
func adjustRSPBase(in *isa.Inst) {
	if in.HasMem && in.M.Base == isa.RSP {
		in.M.Disp += 8
	}
}

// emitDispSplit handles Table 3 row 4: "compute displacement value before
// the instruction". The displacement is split d = d1 + d2; a LEA computes
// base+index*scale+d1 into a scratch register and the instruction is
// re-issued as [scratch + d2].
func emitDispSplit(a *isa.Asm, in isa.Inst, attempt int) error {
	scratch, err := pickScratch(in, attempt)
	if err != nil {
		return err
	}
	delta := deltaCandidates[attempt%len(deltaCandidates)]
	d1 := int64(in.M.Disp) - delta
	if d1 < -1<<31 || d1 >= 1<<31 {
		d1 = int64(in.M.Disp) + delta
		delta = -delta
	}
	lea := isa.Mem{Base: in.M.Base, Index: in.M.Index, Scale: in.M.Scale, Disp: int32(d1)}
	a.PushReg(scratch)
	if lea.Base == isa.RSP {
		lea.Disp += 8
	}
	a.Lea(scratch, lea)
	sub := in
	sub.M = isa.Mem{Base: scratch, Index: isa.NoReg, Scale: 1, Disp: int32(delta)}
	if err := a.Encode(sub); err != nil {
		return err
	}
	a.PopReg(scratch)
	return nil
}

// emitImmRewrite handles Table 3 row 5: "apply instruction twice with
// different immediates", with op-specific split rules, falling back to a
// scratch register for non-splittable operations (CMP, IMUL3) and to a
// flag-preserving MOV+LEA pair for MOV-immediate. A branch's immediate
// never reaches here: fix moves the branch instead.
func emitImmRewrite(a *isa.Asm, in isa.Inst, attempt int) error {
	delta := deltaCandidates[attempt%len(deltaCandidates)]

	switch in.Op {
	case isa.ADD, isa.SUB, isa.XOR, isa.AND, isa.OR:
		imm := int64(int32(in.Imm))
		var i1, i2 int64
		switch in.Op {
		case isa.ADD, isa.SUB:
			i1, i2 = imm-delta, delta
			if i1 < -1<<31 || i1 >= 1<<31 {
				i1, i2 = imm+delta, -delta
			}
		case isa.XOR:
			i1, i2 = imm^delta, delta
		case isa.AND:
			// (imm|m1) & (imm|m2) == imm when m1 and m2 are disjoint
			// subsets of ^imm.
			free := ^imm
			m1 := free & 0x5555_5555 & rotMask(attempt)
			m2 := free & ^m1
			i1, i2 = int64(int32(imm|m1)), int64(int32(imm|m2))
		case isa.OR:
			// (imm&m) | (imm&^m) == imm.
			m := int64(0x5555_5555) ^ rotMask(attempt)
			i1, i2 = int64(int32(imm&m)), int64(int32(imm&^m))
		}
		first, second := in, in
		first.Imm, second.Imm = i1, i2
		if err := a.Encode(first); err != nil {
			return err
		}
		return a.Encode(second)

	case isa.CMP:
		scratch, err := pickScratch(in, attempt)
		if err != nil {
			return err
		}
		imm := int64(int32(in.Imm))
		a.PushReg(scratch)
		a.MovRI64(scratch, imm-delta)
		a.Lea(scratch, isa.Mem{Base: scratch, Index: isa.NoReg, Scale: 1, Disp: int32(delta)})
		cmp := in
		cmp.HasImm, cmp.Imm = false, 0
		cmp.Src = scratch
		adjustRSPBase(&cmp)
		if err := a.Encode(cmp); err != nil {
			return err
		}
		a.PopReg(scratch)
		return nil

	case isa.MOVI:
		imm := in.Imm
		if in.ImmLen == 4 {
			imm = int64(int32(imm))
		}
		if !in.HasMem {
			if in.ImmLen == 8 {
				// The pattern can hide anywhere in an imm64, including its
				// high bytes, which a small additive delta never perturbs.
				// Split with a full-width pseudo-random value instead, kept
				// flag-preserving via LEA's base+index form:
				//   push s; movabs s, d; movabs dst, imm-d;
				//   lea dst, [dst + s*1]; pop s
				scratch, err := pickScratch(in, attempt)
				if err != nil {
					return err
				}
				d := int64(uint64(0x9E3779B97F4A7C15) * uint64(attempt+1))
				a.PushReg(scratch)
				a.MovRI64(scratch, d)
				a.MovRI64(in.Dst, imm-d)
				a.Lea(in.Dst, isa.Mem{Base: in.Dst, Index: scratch, Scale: 1})
				a.PopReg(scratch)
				return nil
			}
			// Flag-preserving: MOV dst, imm-δ; LEA dst, [dst+δ].
			a.MovRI64(in.Dst, imm-delta)
			a.Lea(in.Dst, isa.Mem{Base: in.Dst, Index: isa.NoReg, Scale: 1, Disp: int32(delta)})
			return nil
		}
		scratch, err := pickScratch(in, attempt)
		if err != nil {
			return err
		}
		a.PushReg(scratch)
		a.MovRI64(scratch, imm-delta)
		a.Lea(scratch, isa.Mem{Base: scratch, Index: isa.NoReg, Scale: 1, Disp: int32(delta)})
		st := in
		st.Op = isa.MOV
		st.HasImm, st.Imm = false, 0
		st.Src = scratch
		st.MemIsDst = true
		adjustRSPBase(&st)
		if err := a.Encode(st); err != nil {
			return err
		}
		a.PopReg(scratch)
		return nil

	case isa.IMUL3:
		scratch, err := pickScratch(in, attempt)
		if err != nil {
			return err
		}
		imm := int64(int32(in.Imm))
		a.PushReg(scratch)
		a.MovRI64(scratch, imm-delta)
		a.Lea(scratch, isa.Mem{Base: scratch, Index: isa.NoReg, Scale: 1, Disp: int32(delta)})
		mul := isa.Inst{Op: isa.IMUL2, Dst: scratch, Src: in.Src}
		if in.HasMem {
			mul.HasMem, mul.M = true, in.M
			mul.Src = isa.NoReg
			adjustRSPBase(&mul)
		}
		if err := a.Encode(mul); err != nil {
			return err
		}
		a.MovRR(in.Dst, scratch)
		a.PopReg(scratch)
		return nil
	}
	return fmt.Errorf("rewrite: no immediate strategy for %v", in.Op)
}

// rotMask varies the AND/OR split masks across attempts.
func rotMask(attempt int) int64 {
	shift := uint(attempt % 16)
	v := (uint32(0xF0F0_F0F0) >> shift) | (uint32(0xF0F0_F0F0) << (32 - shift))
	return int64(int32(v))
}
