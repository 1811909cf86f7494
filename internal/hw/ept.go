package hw

import "fmt"

// EPTFlags are extended-page-table entry permission bits (Intel SDM Vol 3,
// Table 28-1: bit 0 read, bit 1 write, bit 2 execute; bit 7 marks a large
// page at the PDPT/PD levels).
type EPTFlags uint64

// EPT entry flag bits.
const (
	EPTRead  EPTFlags = 1 << 0
	EPTWrite EPTFlags = 1 << 1
	EPTExec  EPTFlags = 1 << 2
	EPTPS    EPTFlags = 1 << 7

	// EPTAll is the common read+write+execute permission set.
	EPTAll = EPTRead | EPTWrite | EPTExec

	eptAddrMask = 0x000ffffffffff000
)

// EPTViolation describes a failed GPA translation. It becomes the payload
// of an EPT-violation VM exit.
type EPTViolation struct {
	GPA    GPA
	Access Access
	Level  int // table level at which the walk failed (4..1, 0 = leaf perms)
}

// Error implements the error interface.
func (v *EPTViolation) Error() string {
	return fmt.Sprintf("ept violation: %s of gpa %#x (level %d)", v.Access, uint64(v.GPA), v.Level)
}

// EPT is a four-level extended page table translating GPA to HPA, with
// support for 1 GiB, 2 MiB, and 4 KiB mappings.
//
// EPTs support shallow cloning: a clone shares every interior table page
// with its parent and owns only its root. RemapGPA then path-copies just
// the table pages between the root and one leaf — the paper's observation
// that binding a client to a server modifies "only four pages" while "all
// other EPT pages are kept intact". Ownership is tracked per table page so a
// clone never writes through to pages it shares with the base EPT.
type EPT struct {
	mem   *PhysMem
	src   FrameSource
	Root  HPA
	owned map[HPA]bool // table pages exclusively owned by this EPT

	// OwnedPages is the number of table pages this EPT had to allocate
	// for itself (1 for a fresh clone's root; +N after remaps). Exposed
	// for the shallow-vs-deep ablation benchmark.
	OwnedPages int
}

// FrameSource supplies physical frames for table pages. PhysMem itself is
// one; the Rootkernel supplies a source drawing from its reserved region so
// that EPT structures are not guest-accessible.
type FrameSource interface {
	AllocFrame() (HPA, error)
}

// NewEPT allocates an empty EPT with table frames from general memory.
func NewEPT(mem *PhysMem) *EPT { return NewEPTFrom(mem, mem) }

// NewEPTFrom allocates an empty EPT drawing table frames from src.
func NewEPTFrom(mem *PhysMem, src FrameSource) *EPT {
	root := mustFrame(src)
	return &EPT{
		mem:        mem,
		src:        src,
		Root:       root,
		owned:      map[HPA]bool{root: true},
		OwnedPages: 1,
	}
}

func mustFrame(src FrameSource) HPA {
	h, err := src.AllocFrame()
	if err != nil {
		panic(err)
	}
	return h
}

// newTable allocates one owned table page.
func (e *EPT) newTable() HPA {
	h := mustFrame(e.src)
	e.owned[h] = true
	e.OwnedPages++
	return h
}

// levelFor returns the leaf level for a mapping size.
func levelFor(size uint64) (int, error) {
	switch size {
	case PageSize:
		return 1, nil
	case Page2MSize:
		return 2, nil
	case Page1GSize:
		return 3, nil
	default:
		return 0, fmt.Errorf("hw: unsupported EPT mapping size %#x", size)
	}
}

// Map establishes a translation gpa -> hpa of the given size (PageSize,
// Page2MSize, or Page1GSize) with the given permissions. Both addresses
// must be size aligned. Map is used to build EPTs from scratch and assumes
// all pages along the path are owned (it is not clone-safe; clones must use
// RemapGPA).
func (e *EPT) Map(gpa GPA, hpa HPA, size uint64, flags EPTFlags) error {
	leaf, err := levelFor(size)
	if err != nil {
		return err
	}
	if uint64(gpa)%size != 0 || uint64(hpa)%size != 0 {
		return fmt.Errorf("hw: EPT.Map unaligned gpa=%#x hpa=%#x size=%#x", uint64(gpa), uint64(hpa), size)
	}
	table := e.Root
	for level := 4; level > leaf; level-- {
		slot := table + HPA(8*gpa.Index(level))
		entry := e.mem.ReadU64(slot)
		if EPTFlags(entry)&EPTAll == 0 {
			next := e.newTable()
			entry = uint64(next) | uint64(EPTAll)
			e.mem.WriteU64(slot, entry)
		} else if EPTFlags(entry)&EPTPS != 0 {
			return fmt.Errorf("hw: EPT.Map would split existing %d-level large page at gpa %#x; use RemapGPA", level, uint64(gpa))
		}
		table = HPA(entry & eptAddrMask)
	}
	entry := uint64(hpa) | uint64(flags)
	if leaf > 1 {
		entry |= uint64(EPTPS)
	}
	e.mem.WriteU64(table+HPA(8*gpa.Index(leaf)), entry)
	return nil
}

// MapIdentityRange identity-maps [base, base+n*size) using n mappings of the
// given size. It is the Rootkernel's tool for building the hugepage base EPT.
func (e *EPT) MapIdentityRange(base GPA, n int, size uint64, flags EPTFlags) error {
	for i := 0; i < n; i++ {
		off := uint64(i) * size
		if err := e.Map(base+GPA(off), HPA(uint64(base)+off), size, flags); err != nil {
			return err
		}
	}
	return nil
}

// CloneShallow creates a copy-on-write clone sharing all interior pages.
func (e *EPT) CloneShallow() *EPT {
	root := mustFrame(e.src)
	var buf [PageSize]byte
	e.mem.Read(e.Root, buf[:])
	e.mem.Write(root, buf[:])
	return &EPT{
		mem:        e.mem,
		src:        e.src,
		Root:       root,
		owned:      map[HPA]bool{root: true},
		OwnedPages: 1,
	}
}

// CloneDeep creates a full copy of every table page. It exists only as the
// ablation baseline for CloneShallow.
func (e *EPT) CloneDeep() *EPT {
	c := &EPT{mem: e.mem, src: e.src, owned: make(map[HPA]bool)}
	c.Root = c.deepCopyTable(e.Root, 4)
	return c
}

func (c *EPT) deepCopyTable(src HPA, level int) HPA {
	dst := c.newTable()
	for i := 0; i < EntriesPerTable; i++ {
		entry := c.mem.ReadU64(src + HPA(8*i))
		if EPTFlags(entry)&EPTAll == 0 {
			continue
		}
		if level > 1 && EPTFlags(entry)&EPTPS == 0 {
			next := c.deepCopyTable(HPA(entry&eptAddrMask), level-1)
			entry = uint64(next) | (entry &^ eptAddrMask)
		}
		c.mem.WriteU64(dst+HPA(8*i), entry)
	}
	return dst
}

// RemapGPA changes the 4 KiB translation of gpa to newHPA with the given
// permissions, path-copying (and splitting large pages) as needed so that no
// shared table page is modified. It returns the number of table pages that
// had to be copied or created — the paper's "only four pages are modified"
// claim is asserted against this value in tests.
//
// This is the operation the Rootkernel uses to remap the GPA of the client's
// CR3 to the HPA of the server's page-table root inside the server's EPT.
func (e *EPT) RemapGPA(gpa GPA, newHPA HPA, flags EPTFlags) (copied int, err error) {
	if gpa.PageOff() != 0 || uint64(newHPA)%PageSize != 0 {
		return 0, fmt.Errorf("hw: RemapGPA unaligned gpa=%#x hpa=%#x", uint64(gpa), uint64(newHPA))
	}
	table := e.Root
	for level := 4; level > 1; level-- {
		slot := table + HPA(8*gpa.Index(level))
		entry := e.mem.ReadU64(slot)
		switch {
		case EPTFlags(entry)&EPTAll == 0:
			// Hole: create a fresh owned table.
			next := e.newTable()
			copied++
			e.mem.WriteU64(slot, uint64(next)|uint64(EPTAll))
			table = next
		case EPTFlags(entry)&EPTPS != 0:
			// Large page: split into an owned table of the next-smaller size.
			next, n := e.splitLargePage(entry, level)
			copied += n
			e.mem.WriteU64(slot, uint64(next)|uint64(EPTFlags(entry)&EPTAll))
			table = next
		default:
			next := HPA(entry & eptAddrMask)
			if !e.owned[next] {
				// Shared interior page: copy before descending.
				cp := e.copyTablePage(next)
				copied++
				e.mem.WriteU64(slot, uint64(cp)|(entry&^eptAddrMask))
				next = cp
			}
			table = next
		}
	}
	e.mem.WriteU64(table+HPA(8*gpa.Index(1)), uint64(newHPA)|uint64(flags))
	return copied, nil
}

// splitLargePage replaces a PS entry at the given level with an owned table
// of 512 entries covering the same range. At level 3 the children are 2 MiB
// PS entries; at level 2 they are 4 KiB leaves.
func (e *EPT) splitLargePage(entry uint64, level int) (HPA, int) {
	base := entry & eptAddrMask
	perms := uint64(EPTFlags(entry) & EPTAll)
	childSize := uint64(PageSize)
	childPS := uint64(0)
	if level == 3 {
		childSize = Page2MSize
		childPS = uint64(EPTPS)
	}
	next := e.newTable()
	for i := uint64(0); i < EntriesPerTable; i++ {
		e.mem.WriteU64(next+HPA(8*i), (base+i*childSize)|perms|childPS)
	}
	return next, 1
}

// copyTablePage duplicates a shared table page into an owned one.
func (e *EPT) copyTablePage(src HPA) HPA {
	dst := e.newTable()
	var buf [PageSize]byte
	e.mem.Read(src, buf[:])
	e.mem.Write(dst, buf[:])
	return dst
}

// Translate resolves gpa to an HPA, enforcing permissions. On failure it
// returns an *EPTViolation describing the fault.
func (e *EPT) Translate(gpa GPA, acc Access) (HPA, *EPTViolation) {
	hpa, _, v := e.TranslateInto(gpa, acc, nil)
	return hpa, v
}

// eptNeed returns the EPT permission bit an access kind requires.
func eptNeed(acc Access) EPTFlags {
	switch acc {
	case AccessWrite:
		return EPTWrite
	case AccessExec:
		return EPTExec
	}
	return EPTRead
}

// TranslateInto is Translate that also appends the physical address of
// every EPT entry the walk read to trace, so the CPU model can charge
// cache accesses for the walk (this is where the 2-level-translation cost
// the paper discusses comes from). Pass a reused scratch slice to avoid
// the per-walk allocation.
func (e *EPT) TranslateInto(gpa GPA, acc Access, trace []HPA) (HPA, []HPA, *EPTViolation) {
	need := eptNeed(acc)
	table := e.Root
	for level := 4; level >= 1; level-- {
		slot := table + HPA(8*gpa.Index(level))
		trace = append(trace, slot)
		entry := e.mem.ReadU64(slot)
		if EPTFlags(entry)&EPTAll == 0 {
			return 0, trace, &EPTViolation{GPA: gpa, Access: acc, Level: level}
		}
		if level == 1 || EPTFlags(entry)&EPTPS != 0 {
			if EPTFlags(entry)&need == 0 {
				return 0, trace, &EPTViolation{GPA: gpa, Access: acc, Level: 0}
			}
			var size uint64
			switch level {
			case 1:
				size = PageSize
			case 2:
				size = Page2MSize
			case 3:
				size = Page1GSize
			default:
				return 0, trace, &EPTViolation{GPA: gpa, Access: acc, Level: level}
			}
			base := entry & eptAddrMask
			return HPA(base + uint64(gpa)%size), trace, nil
		}
		table = HPA(entry & eptAddrMask)
	}
	return 0, trace, &EPTViolation{GPA: gpa, Access: acc, Level: 1}
}
