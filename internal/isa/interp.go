package isa

import (
	"encoding/binary"
	"fmt"
)

// Region is a span of interpreter-visible memory (code or data).
type Region struct {
	Base uint64
	Data []byte
}

// Interp is a small x86-64 interpreter over the supported subset. It exists
// to prove that the VMFUNC rewriter's output is functionally equivalent to
// its input: tests run both versions from identical initial states and
// compare final register, flag, and memory state.
type Interp struct {
	Regs [16]uint64
	RIP  uint64

	// Arithmetic flags.
	ZF, SF, CF, OF bool

	regions []Region

	// VMFuncCount counts executed VMFUNC instructions — the quantity the
	// rewriter must drive to zero for untrusted code.
	VMFuncCount int
	// SyscallCount counts executed SYSCALL instructions.
	SyscallCount int
	// Halted is set by HLT.
	Halted bool
	// Steps counts executed instructions.
	Steps int
}

// NewInterp returns an empty interpreter.
func NewInterp() *Interp { return &Interp{} }

// AddRegion maps data at base. Regions must not overlap.
func (ip *Interp) AddRegion(base uint64, data []byte) {
	for _, r := range ip.regions {
		if base < r.Base+uint64(len(r.Data)) && r.Base < base+uint64(len(data)) {
			panic(fmt.Sprintf("isa: region %#x overlaps existing region %#x", base, r.Base))
		}
	}
	ip.regions = append(ip.regions, Region{Base: base, Data: data})
}

func (ip *Interp) region(addr uint64, n int) ([]byte, error) {
	for _, r := range ip.regions {
		if addr >= r.Base && addr+uint64(n) <= r.Base+uint64(len(r.Data)) {
			off := addr - r.Base
			return r.Data[off : off+uint64(n)], nil
		}
	}
	return nil, fmt.Errorf("isa: interpreter fault: access of %d bytes at %#x", n, addr)
}

func (ip *Interp) read64(addr uint64) (uint64, error) {
	b, err := ip.region(addr, 8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (ip *Interp) write64(addr uint64, v uint64) error {
	b, err := ip.region(addr, 8)
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// ea computes the effective address of a memory operand. end is the address
// of the next instruction (for RIP-relative operands).
func (ip *Interp) ea(m Mem, end uint64) uint64 {
	if m.RIPRel {
		return end + uint64(int64(m.Disp))
	}
	var a uint64
	if m.Base != NoReg {
		a = ip.Regs[m.Base]
	}
	if m.Index != NoReg {
		a += ip.Regs[m.Index] * uint64(m.Scale)
	}
	return a + uint64(int64(m.Disp))
}

// srcValue resolves the source operand of a two-operand instruction.
func (ip *Interp) srcValue(in Inst, end uint64) (uint64, error) {
	switch {
	case in.HasImm:
		return uint64(in.Imm), nil
	case in.HasMem && !in.MemIsDst:
		return ip.read64(ip.ea(in.M, end))
	default:
		return ip.Regs[in.Src], nil
	}
}

// dstValue resolves the current destination value.
func (ip *Interp) dstValue(in Inst, end uint64) (uint64, error) {
	if in.HasMem && in.MemIsDst {
		return ip.read64(ip.ea(in.M, end))
	}
	return ip.Regs[in.Dst], nil
}

// setDst writes the destination operand.
func (ip *Interp) setDst(in Inst, end uint64, v uint64) error {
	if in.HasMem && in.MemIsDst {
		return ip.write64(ip.ea(in.M, end), v)
	}
	ip.Regs[in.Dst] = v
	return nil
}

func (ip *Interp) setZS(res uint64) {
	ip.ZF = res == 0
	ip.SF = res>>63 != 0
}

// fetchWindow returns the up-to-15-byte fetch window at the current RIP,
// clamped to the containing region.
func (ip *Interp) fetchWindow() ([]byte, error) {
	for _, r := range ip.regions {
		if ip.RIP >= r.Base && ip.RIP < r.Base+uint64(len(r.Data)) {
			code := r.Data[ip.RIP-r.Base:]
			return code[:min(len(code), 15)], nil
		}
	}
	return nil, fmt.Errorf("isa: interpreter fault: access of 1 bytes at %#x", ip.RIP)
}

// Step fetches, decodes, and executes one instruction.
func (ip *Interp) Step() error {
	code, err := ip.fetchWindow()
	if err != nil {
		return err
	}
	var in Inst
	if err := decode(code, &in); err != nil {
		return fmt.Errorf("isa: at rip %#x: %w", ip.RIP, err)
	}
	end := ip.RIP + uint64(in.Len)
	ip.Steps++
	return ip.execInst(&in, end)
}

// alu64 applies a 64-bit ALU operation to (a, b), setting CF/OF/ZF/SF, and
// returns the result.
func (ip *Interp) alu64(op Op, a, b uint64) uint64 {
	var res uint64
	switch op {
	case ADD:
		res = a + b
		ip.CF = res < a
		ip.OF = (a^res)&(b^res)>>63 != 0
	case SUB, CMP:
		res = a - b
		ip.CF = a < b
		ip.OF = (a^b)&(a^res)>>63 != 0
	case AND, TEST:
		res = a & b
		ip.CF, ip.OF = false, false
	case OR:
		res = a | b
		ip.CF, ip.OF = false, false
	case XOR:
		res = a ^ b
		ip.CF, ip.OF = false, false
	}
	ip.setZS(res)
	return res
}

// execInst executes one decoded instruction, updating RIP. end is the
// address of the next sequential instruction.
func (ip *Interp) execInst(in *Inst, end uint64) error {
	switch in.Op {
	case NOP:
	case HLT:
		ip.Halted = true
	case INT3:
		return fmt.Errorf("isa: int3 trap at rip %#x", ip.RIP)
	case VMFUNC:
		ip.VMFuncCount++
	case SYSCALL:
		ip.SyscallCount++
	case PUSH:
		ip.Regs[RSP] -= 8
		if err := ip.write64(ip.Regs[RSP], ip.Regs[in.Dst]); err != nil {
			return err
		}
	case POP:
		v, err := ip.read64(ip.Regs[RSP])
		if err != nil {
			return err
		}
		ip.Regs[RSP] += 8
		ip.Regs[in.Dst] = v
	case MOV, MOVI:
		v, err := ip.srcValue(*in, end)
		if err != nil {
			return err
		}
		if err := ip.setDst(*in, end, v); err != nil {
			return err
		}
	case LEA:
		ip.Regs[in.Dst] = ip.ea(in.M, end)
	case ADD, SUB, AND, OR, XOR, CMP, TEST:
		a, err := ip.dstValue(*in, end)
		if err != nil {
			return err
		}
		b, err := ip.srcValue(*in, end)
		if err != nil {
			return err
		}
		if in.Bits32 {
			a &= 0xffffffff
			b &= 0xffffffff
		}
		res := ip.alu64(in.Op, a, b)
		if in.Bits32 {
			// 32-bit results zero-extend; flags derive from the 32-bit value.
			res &= 0xffffffff
			switch in.Op {
			case ADD:
				ip.CF = res < a
				ip.OF = (a^res)&(b^res)>>31 != 0
			case SUB, CMP:
				ip.CF = a < b
				ip.OF = (a^b)&(a^res)>>31 != 0
			}
			ip.ZF = res == 0
			ip.SF = res>>31 != 0
			if in.Op != CMP && in.Op != TEST {
				if err := ip.setDst(*in, end, res); err != nil {
					return err
				}
			}
			ip.RIP = end
			return nil
		}
		if in.Op != CMP && in.Op != TEST {
			if err := ip.setDst(*in, end, res); err != nil {
				return err
			}
		}
	case IMUL2, IMUL3:
		var a, b uint64
		if in.Op == IMUL3 {
			b = uint64(in.Imm)
			if in.HasMem {
				v, err := ip.read64(ip.ea(in.M, end))
				if err != nil {
					return err
				}
				a = v
			} else {
				a = ip.Regs[in.Src]
			}
		} else {
			a = ip.Regs[in.Dst]
			if in.HasMem {
				v, err := ip.read64(ip.ea(in.M, end))
				if err != nil {
					return err
				}
				b = v
			} else {
				b = ip.Regs[in.Src]
			}
		}
		res := a * b
		ip.Regs[in.Dst] = res
		// SF/ZF are architecturally undefined after IMUL; the interpreter
		// defines them deterministically from the result so equivalence
		// comparisons are stable.
		ip.setZS(res)
		ip.CF, ip.OF = false, false
	case JMP:
		ip.RIP = end + uint64(int64(in.Rel))
		return nil
	case CALL:
		ip.Regs[RSP] -= 8
		if err := ip.write64(ip.Regs[RSP], end); err != nil {
			return err
		}
		ip.RIP = end + uint64(int64(in.Rel))
		return nil
	case RET:
		v, err := ip.read64(ip.Regs[RSP])
		if err != nil {
			return err
		}
		ip.Regs[RSP] += 8
		ip.RIP = v
		return nil
	case JCC:
		taken, err := ip.cond(in.Cond)
		if err != nil {
			return err
		}
		if taken {
			ip.RIP = end + uint64(int64(in.Rel))
			return nil
		}
	default:
		return fmt.Errorf("isa: unimplemented op %v at rip %#x", in.Op, ip.RIP)
	}
	ip.RIP = end
	return nil
}

func (ip *Interp) cond(c Cond) (bool, error) {
	switch c {
	case CondO:
		return ip.OF, nil
	case CondNO:
		return !ip.OF, nil
	case CondB:
		return ip.CF, nil
	case CondAE:
		return !ip.CF, nil
	case CondE:
		return ip.ZF, nil
	case CondNE:
		return !ip.ZF, nil
	case CondBE:
		return ip.CF || ip.ZF, nil
	case CondA:
		return !ip.CF && !ip.ZF, nil
	case CondS:
		return ip.SF, nil
	case CondNS:
		return !ip.SF, nil
	case CondL:
		return ip.SF != ip.OF, nil
	case CondGE:
		return ip.SF == ip.OF, nil
	case CondLE:
		return ip.ZF || ip.SF != ip.OF, nil
	case CondG:
		return !ip.ZF && ip.SF == ip.OF, nil
	default:
		return false, fmt.Errorf("isa: unsupported condition %#x (parity)", int(c))
	}
}

// Run executes until HLT, an error, or maxSteps instructions.
func (ip *Interp) Run(maxSteps int) error {
	for !ip.Halted {
		if ip.Steps >= maxSteps {
			return fmt.Errorf("isa: exceeded %d steps at rip %#x", maxSteps, ip.RIP)
		}
		if err := ip.Step(); err != nil {
			return err
		}
	}
	return nil
}
