// Package rewrite implements SkyBridge's defense against the VMFUNC-faking
// attack (paper §5): scanning a process's code pages for any occurrence of
// the VMFUNC byte pattern — intended or inadvertent — and rewriting it into
// functionally equivalent instructions that do not contain the pattern.
//
// Because the CR3-remapping design makes *any* VMFUNC usable from *any*
// virtual address (unlike SeCage, where the trampoline is the only mapped
// entry), the kernel must guarantee that no executable byte sequence
// 0F 01 D4 exists outside the trampoline page. The rewriter implements the
// five overlap cases of Table 3 plus the instruction-spanning case, placing
// oversized replacements on a rewriting page mapped at 0x1000 ("the second
// page in the virtual address space", §5.1) and linking them with jumps.
package rewrite

import (
	"bytes"
	"fmt"

	"skybridge/internal/isa"
)

// Pattern is the VMFUNC instruction encoding.
var Pattern = []byte{0x0f, 0x01, 0xd4}

// DefaultRewriteBase is the virtual address of the rewriting page: the
// second page of the address space, deliberately left unmapped by most
// operating systems (§5.1).
const DefaultRewriteBase uint64 = 0x1000

// Case classifies where an occurrence of the pattern falls, following
// Table 3 plus the spanning condition C2.
type Case int

// Overlap cases.
const (
	// CaseOpcode: the instruction is literally VMFUNC (Table 3 row 1).
	CaseOpcode Case = iota
	// CaseModRM: the 0F byte is the ModRM field (row 2).
	CaseModRM
	// CaseSIB: the 0F byte is the SIB field (row 3).
	CaseSIB
	// CaseDisp: the 0F byte falls in the displacement (row 4).
	CaseDisp
	// CaseImm: the 0F byte falls in the immediate (row 5).
	CaseImm
	// CaseSpanning: the pattern spans two or more instructions (C2).
	CaseSpanning
)

// String implements fmt.Stringer.
func (c Case) String() string {
	switch c {
	case CaseOpcode:
		return "opcode"
	case CaseModRM:
		return "modrm"
	case CaseSIB:
		return "sib"
	case CaseDisp:
		return "disp"
	case CaseImm:
		return "imm"
	case CaseSpanning:
		return "spanning"
	default:
		return fmt.Sprintf("Case(%d)", int(c))
	}
}

// Occurrence is one place the pattern appears in a code stream.
type Occurrence struct {
	// Off is the byte offset of the pattern's 0F byte.
	Off int
	// Case classifies the overlap.
	Case Case
	// InstOff is the offset of the instruction containing Off.
	InstOff int
	// Inst is that instruction.
	Inst isa.Inst
	// SpanEnd, for CaseSpanning, is the end offset of the last spanned
	// instruction.
	SpanEnd int
}

// FindPattern returns the offsets of every occurrence of the VMFUNC byte
// pattern in b. No proper suffix of the pattern is also its prefix, so
// occurrences never overlap.
func FindPattern(b []byte) []int {
	var offs []int
	for off := 0; ; {
		i := bytes.Index(b[off:], Pattern)
		if i < 0 {
			return offs
		}
		offs = append(offs, off+i)
		off += i + len(Pattern)
	}
}

// Scan decodes code linearly ("the Subkernel will bookkeep the current
// instruction during scanning, which helps to determine instruction
// boundaries", §5.2) and classifies every occurrence of the pattern.
func Scan(code []byte) ([]Occurrence, error) {
	offs := FindPattern(code)
	if len(offs) == 0 {
		return nil, nil
	}
	insts, err := isa.DecodeAll(code)
	if err != nil {
		return nil, fmt.Errorf("rewrite: scan: %w", err)
	}
	starts := make([]int, len(insts))
	off := 0
	for i, in := range insts {
		starts[i] = off
		off += in.Len
	}

	var occs []Occurrence
	for _, p := range offs {
		// Find the instruction containing p.
		idx := -1
		for i := range insts {
			if p >= starts[i] && p < starts[i]+insts[i].Len {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("rewrite: pattern at +%d outside decoded instructions", p)
		}
		in, instOff := insts[idx], starts[idx]
		end := instOff + in.Len
		occ := Occurrence{Off: p, InstOff: instOff, Inst: in}
		if p+len(Pattern) > end {
			occ.Case = CaseSpanning
			// Find the last instruction the pattern reaches into.
			last := idx
			for starts[last]+insts[last].Len < p+len(Pattern) {
				last++
				if last >= len(insts) {
					return nil, fmt.Errorf("rewrite: pattern at +%d runs past code end", p)
				}
			}
			occ.SpanEnd = starts[last] + insts[last].Len
			occs = append(occs, occ)
			continue
		}
		rel := p - instOff
		switch {
		case rel >= in.OpcodeOff && rel < in.OpcodeOff+in.OpcodeLen:
			occ.Case = CaseOpcode
		case rel == in.ModRMOff:
			occ.Case = CaseModRM
		case rel == in.SIBOff:
			occ.Case = CaseSIB
		case in.DispOff >= 0 && rel >= in.DispOff && rel < in.DispOff+in.DispLen:
			occ.Case = CaseDisp
		case in.ImmOff >= 0 && rel >= in.ImmOff && rel < in.ImmOff+in.ImmLen:
			occ.Case = CaseImm
		default:
			return nil, fmt.Errorf("rewrite: pattern at +%d in unclassifiable field of %v", p, in)
		}
		occs = append(occs, occ)
	}
	return occs, nil
}

// CountInadvertent returns the number of pattern occurrences that are NOT
// literal VMFUNC instructions — the quantity Table 6 reports per program.
func CountInadvertent(code []byte) (int, error) {
	occs, err := Scan(code)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, o := range occs {
		if o.Case != CaseOpcode {
			n++
		}
	}
	return n, nil
}
