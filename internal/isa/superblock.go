package isa

import (
	"bytes"
	"fmt"
)

// Superblock (direct-threaded) execution.
//
// A superblock is a straight-line run of decoded instructions starting at
// one entry RIP: formation walks forward from the entry, decoding until a
// control-transfer or system instruction (which terminates the block and is
// included as its last instruction), a page boundary, the end of the
// region, a decode failure, or the SBMaxLen cap. Each instruction gets a
// direct-threaded handler closure specialized at formation time, so
// dispatch is one indirect call per instruction with no per-instruction
// fetch, decode, or operand re-resolution.
//
// Correctness invariants (the feature must be architecturally invisible):
//   - One byte-validation per dispatch: the block's formation-time byte
//     copy is compared against the live region bytes; any mismatch drops
//     the block and re-forms from the current bytes, so rewrite-over-code
//     between dispatches executes the new bytes, exactly like Step.
//   - Self-modifying code inside a block: every data store is tracked
//     (storeSeq/lastStore); a store overlapping the block's own
//     not-yet-executed bytes bails out of the block, letting Step()
//     re-decode the freshly written bytes just as per-step execution would.
//   - Step accounting is exact: the maxSteps bound is checked before every
//     fused instruction, so Run's "exceeded N steps" error fires at the
//     same Steps/RIP as per-step execution.
//   - AddRegion/InvalidateCode drop all blocks.

// SBMaxLen caps the number of instructions fused into one superblock.
const SBMaxLen = 64

// sbPageSize is the fetch page granularity; blocks never span a page
// boundary (an instruction that starts on the entry page may end past it,
// matching hardware fetch semantics).
const sbPageSize = 4096

// SBStats are host-side superblock diagnostics; they do not affect
// architectural state.
type SBStats struct {
	// Formed counts blocks built; Hits counts dispatches served from the
	// block cache (after byte revalidation).
	Formed, Hits uint64
	// Execs counts block dispatches; Instrs counts instructions retired
	// inside blocks.
	Execs, Instrs uint64
	// Bails counts mid-block fallbacks to Step() caused by a store over
	// the block's own remaining bytes.
	Bails uint64
	// Invalidations counts whole-cache drops (AddRegion/InvalidateCode)
	// plus per-entry drops from failed byte revalidation.
	Invalidations uint64
	// LenHist[n] counts blocks formed with n instructions.
	LenHist [SBMaxLen + 1]uint64
}

// MeanLen returns the mean formed-block length in instructions.
func (s *SBStats) MeanLen() float64 {
	var blocks, instrs uint64
	for n, c := range s.LenHist {
		blocks += c
		instrs += uint64(n) * c
	}
	if blocks == 0 {
		return 0
	}
	return float64(instrs) / float64(blocks)
}

// sbHandler executes one fused instruction, updating RIP exactly as
// Step()'s execInst would.
type sbHandler func(*Interp) error

// superblock is one fused straight-line run.
type superblock struct {
	entry uint64
	// ends[i] is the address of the instruction after instruction i — the
	// lower bound of the block bytes still unexecuted once i retires.
	ends  []uint64
	funcs []sbHandler
	// raw is a formation-time copy of the block's code bytes; live is the
	// region subslice they came from. Dispatch revalidates raw against
	// live, so in-place code writes transparently invalidate the block.
	raw, live []byte
}

// sbTerminator reports whether op ends block formation (the instruction is
// still included as the block's last).
func sbTerminator(op Op) bool {
	switch op {
	case JMP, JCC, CALL, RET, HLT, VMFUNC, SYSCALL, INT3:
		return true
	}
	return false
}

// findRegion returns the region containing addr, or nil.
func (ip *Interp) findRegion(addr uint64) *Region {
	for i := range ip.regions {
		r := &ip.regions[i]
		if addr >= r.Base && addr < r.Base+uint64(len(r.Data)) {
			return r
		}
	}
	return nil
}

// lookupBlock returns a validated superblock starting at the current RIP,
// forming (and caching) one if needed. nil means no block can start here
// (unmapped RIP or undecodable first instruction); the caller falls back
// to Step(), which surfaces the identical fault.
func (ip *Interp) lookupBlock() *superblock {
	if sb, ok := ip.sbCache[ip.RIP]; ok {
		if bytes.Equal(sb.raw, sb.live) {
			ip.SBStats.Hits++
			return sb
		}
		// Stale bytes under the cached block: drop and re-form.
		ip.SBStats.Invalidations++
		delete(ip.sbCache, ip.RIP)
	}
	sb := ip.formBlock()
	if sb == nil {
		return nil
	}
	if ip.sbCache == nil {
		ip.sbCache = make(map[uint64]*superblock)
	}
	ip.sbCache[ip.RIP] = sb
	ip.SBStats.Formed++
	ip.SBStats.LenHist[len(sb.funcs)]++
	return sb
}

// formBlock decodes a straight-line run starting at the current RIP and
// builds its direct-threaded handlers. This is the block's single
// fetch-permission check: the region lookup here stands in for the
// per-instruction region() probe of Step().
func (ip *Interp) formBlock() *superblock {
	rgn := ip.findRegion(ip.RIP)
	if rgn == nil {
		return nil
	}
	rgnEnd := rgn.Base + uint64(len(rgn.Data))
	pageEnd := (ip.RIP | (sbPageSize - 1)) + 1
	sb := &superblock{entry: ip.RIP}
	pc := ip.RIP
	for len(sb.funcs) < SBMaxLen && pc < rgnEnd && pc < pageEnd {
		window := rgn.Data[pc-rgn.Base:]
		if len(window) > 15 {
			window = window[:15]
		}
		in, err := Decode(window)
		if err != nil {
			break
		}
		end := pc + uint64(in.Len)
		sb.ends = append(sb.ends, end)
		sb.funcs = append(sb.funcs, buildHandler(in, end))
		pc = end
		if sbTerminator(in.Op) {
			break
		}
	}
	if len(sb.funcs) == 0 {
		return nil
	}
	sb.live = rgn.Data[sb.entry-rgn.Base : pc-rgn.Base]
	sb.raw = append([]byte(nil), sb.live...)
	return sb
}

// execBlock retires the block's instructions. It returns with ip.RIP (and
// all architectural state) exactly where per-step execution would leave it:
// on an error, at the faulting instruction; on a self-modifying-code bail,
// at the first instruction whose bytes may have changed (Run() then
// re-dispatches or falls back to Step there).
func (ip *Interp) execBlock(sb *superblock, maxSteps int) error {
	ip.SBStats.Execs++
	seq := ip.storeSeq
	blockEnd := sb.entry + uint64(len(sb.raw))
	for i, fn := range sb.funcs {
		if ip.Steps >= maxSteps {
			return fmt.Errorf("isa: exceeded %d steps at rip %#x", maxSteps, ip.RIP)
		}
		ip.Steps++
		if err := fn(ip); err != nil {
			return err
		}
		ip.SBStats.Instrs++
		if ip.storeSeq != seq {
			seq = ip.storeSeq
			// A store retired; if it overlaps the block's remaining bytes
			// the pre-decoded tail is stale — bail to per-step execution.
			// (Every instruction performs at most one store, so lastStore
			// covers all bytes written since the last check.)
			if i+1 < len(sb.funcs) && ip.lastStore+8 > sb.ends[i] && ip.lastStore < blockEnd {
				ip.SBStats.Bails++
				return nil
			}
		}
		if ip.Halted {
			return nil
		}
	}
	return nil
}

// buildHandler specializes one decoded instruction into a direct-threaded
// handler. Hot simple forms (register/immediate moves and 64-bit ALU,
// branches, stack ops) get dedicated closures; everything else routes
// through execInst, so semantics cannot diverge from Step().
func buildHandler(in Inst, end uint64) sbHandler {
	switch in.Op {
	case NOP:
		return func(ip *Interp) error { ip.RIP = end; return nil }
	case HLT:
		return func(ip *Interp) error { ip.Halted = true; ip.RIP = end; return nil }
	case VMFUNC:
		return func(ip *Interp) error { ip.VMFuncCount++; ip.RIP = end; return nil }
	case SYSCALL:
		return func(ip *Interp) error { ip.SyscallCount++; ip.RIP = end; return nil }
	case PUSH:
		src := in.Dst
		return func(ip *Interp) error {
			ip.Regs[RSP] -= 8
			if err := ip.write64(ip.Regs[RSP], ip.Regs[src]); err != nil {
				return err
			}
			ip.RIP = end
			return nil
		}
	case POP:
		dst := in.Dst
		return func(ip *Interp) error {
			v, err := ip.read64(ip.Regs[RSP])
			if err != nil {
				return err
			}
			ip.Regs[RSP] += 8
			ip.Regs[dst] = v
			ip.RIP = end
			return nil
		}
	case MOV:
		if !in.HasMem && !in.HasImm {
			dst, src := in.Dst, in.Src
			return func(ip *Interp) error { ip.Regs[dst] = ip.Regs[src]; ip.RIP = end; return nil }
		}
	case MOVI:
		if !in.HasMem {
			dst, v := in.Dst, uint64(in.Imm)
			return func(ip *Interp) error { ip.Regs[dst] = v; ip.RIP = end; return nil }
		}
	case LEA:
		dst, m := in.Dst, in.M
		return func(ip *Interp) error { ip.Regs[dst] = ip.ea(m, end); ip.RIP = end; return nil }
	case ADD, SUB, AND, OR, XOR, CMP, TEST:
		if !in.Bits32 && !in.HasMem {
			op, dst := in.Op, in.Dst
			writeback := op != CMP && op != TEST
			if in.HasImm {
				b := uint64(in.Imm)
				return func(ip *Interp) error {
					res := ip.alu64(op, ip.Regs[dst], b)
					if writeback {
						ip.Regs[dst] = res
					}
					ip.RIP = end
					return nil
				}
			}
			src := in.Src
			return func(ip *Interp) error {
				res := ip.alu64(op, ip.Regs[dst], ip.Regs[src])
				if writeback {
					ip.Regs[dst] = res
				}
				ip.RIP = end
				return nil
			}
		}
	case JMP:
		target := end + uint64(int64(in.Rel))
		return func(ip *Interp) error { ip.RIP = target; return nil }
	case JCC:
		c := in.Cond
		target := end + uint64(int64(in.Rel))
		return func(ip *Interp) error {
			taken, err := ip.cond(c)
			if err != nil {
				return err
			}
			if taken {
				ip.RIP = target
			} else {
				ip.RIP = end
			}
			return nil
		}
	case CALL:
		target := end + uint64(int64(in.Rel))
		return func(ip *Interp) error {
			ip.Regs[RSP] -= 8
			if err := ip.write64(ip.Regs[RSP], end); err != nil {
				return err
			}
			ip.RIP = target
			return nil
		}
	case RET:
		return func(ip *Interp) error {
			v, err := ip.read64(ip.Regs[RSP])
			if err != nil {
				return err
			}
			ip.Regs[RSP] += 8
			ip.RIP = v
			return nil
		}
	}
	inCopy := in
	return func(ip *Interp) error { return ip.execInst(&inCopy, end) }
}
