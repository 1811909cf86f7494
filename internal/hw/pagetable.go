package hw

import "fmt"

// PTFlags are x86-64-style page-table entry flags. Only the bits the
// simulator interprets are defined; the physical address occupies bits
// 12..51 as on real hardware.
type PTFlags uint64

// Page-table entry flag bits.
const (
	PTEPresent PTFlags = 1 << 0
	PTEWrite   PTFlags = 1 << 1
	PTEUser    PTFlags = 1 << 2
	PTEPS      PTFlags = 1 << 7 // large page (2 MiB at level 2)
	PTENX      PTFlags = 1 << 63

	pteAddrMask = 0x000ffffffffff000
)

// PageTable is a four-level guest page table translating VA to GPA. The
// table pages themselves live in simulated physical memory; the kernel that
// builds the table runs under the Rootkernel's identity-mapped base EPT, so
// table pages are addressed with GPA == HPA (exactly as the Subkernel does
// in the paper).
type PageTable struct {
	mem  *PhysMem
	Root GPA // CR3 value: guest-physical base of the PML4 page
}

// NewPageTable allocates an empty four-level page table.
func NewPageTable(mem *PhysMem) *PageTable {
	root := mem.MustAllocFrame()
	return &PageTable{mem: mem, Root: GPA(root)}
}

// Map establishes a 4 KiB translation va -> gpa with the given flags.
// Intermediate table pages are created as needed with Present|Write|User so
// leaf flags alone decide permissions, matching common kernel practice.
func (pt *PageTable) Map(va VA, gpa GPA, flags PTFlags) error {
	if va.PageOff() != 0 || gpa.PageOff() != 0 {
		return fmt.Errorf("hw: PageTable.Map unaligned va=%#x gpa=%#x", uint64(va), uint64(gpa))
	}
	table := HPA(pt.Root) // identity: table pages are at GPA == HPA
	for level := 4; level > 1; level-- {
		slot := table + HPA(8*va.Index(level))
		e := pt.mem.ReadU64(slot)
		if PTFlags(e)&PTEPresent == 0 {
			next := pt.mem.MustAllocFrame()
			e = uint64(next) | uint64(PTEPresent|PTEWrite|PTEUser)
			pt.mem.WriteU64(slot, e)
		}
		table = HPA(e & pteAddrMask)
	}
	slot := table + HPA(8*va.Index(1))
	pt.mem.WriteU64(slot, uint64(gpa)|uint64(flags|PTEPresent))
	return nil
}

// MapRange maps n contiguous pages starting at (va, gpa).
func (pt *PageTable) MapRange(va VA, gpa GPA, n int, flags PTFlags) error {
	for i := 0; i < n; i++ {
		off := VA(i * PageSize)
		if err := pt.Map(va+off, gpa+GPA(i*PageSize), flags); err != nil {
			return err
		}
	}
	return nil
}

// Unmap removes the 4 KiB translation for va if present.
func (pt *PageTable) Unmap(va VA) {
	table := HPA(pt.Root)
	for level := 4; level > 1; level-- {
		e := pt.mem.ReadU64(table + HPA(8*va.Index(level)))
		if PTFlags(e)&PTEPresent == 0 {
			return
		}
		table = HPA(e & pteAddrMask)
	}
	pt.mem.WriteU64(table+HPA(8*va.Index(1)), 0)
}

// Walk performs a software walk (no cost accounting) and returns the mapped
// GPA and leaf flags for va.
func (pt *PageTable) Walk(va VA) (GPA, PTFlags, bool) {
	table := HPA(pt.Root)
	for level := 4; level > 1; level-- {
		e := pt.mem.ReadU64(table + HPA(8*va.Index(level)))
		if PTFlags(e)&PTEPresent == 0 {
			return 0, 0, false
		}
		table = HPA(e & pteAddrMask)
	}
	e := pt.mem.ReadU64(table + HPA(8*va.Index(1)))
	if PTFlags(e)&PTEPresent == 0 {
		return 0, 0, false
	}
	return GPA(e&pteAddrMask) + GPA(va.PageOff()), PTFlags(e) &^ PTFlags(pteAddrMask), true
}
