package hw

import (
	"testing"
	"testing/quick"
)

func TestPageTableMapWalk(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	va := VA(0x7fff_0000_1000)
	gpa := GPA(0x5000)
	if err := pt.Map(va, gpa, PTEWrite|PTEUser); err != nil {
		t.Fatal(err)
	}
	got, flags, ok := pt.Walk(va)
	if !ok || got != gpa {
		t.Fatalf("walk: got %#x ok=%v, want %#x", uint64(got), ok, uint64(gpa))
	}
	if flags&PTEWrite == 0 || flags&PTEUser == 0 {
		t.Fatalf("flags %#x missing write/user", uint64(flags))
	}
}

func TestPageTableWalkOffset(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	if err := pt.Map(0x4000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	got, _, ok := pt.Walk(0x4123)
	if !ok || got != 0x9123 {
		t.Fatalf("offset walk: got %#x, want 0x9123", uint64(got))
	}
}

func TestPageTableUnmap(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	if err := pt.Map(0x4000, 0x9000, PTEUser); err != nil {
		t.Fatal(err)
	}
	pt.Unmap(0x4000)
	if _, _, ok := pt.Walk(0x4000); ok {
		t.Fatal("mapping survived unmap")
	}
}

func TestPageTableUnmappedWalkFails(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	if _, _, ok := pt.Walk(0xdead000); ok {
		t.Fatal("walk of unmapped va succeeded")
	}
}

func TestPageTableUnalignedMapRejected(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	if err := pt.Map(0x4001, 0x9000, 0); err == nil {
		t.Fatal("unaligned va accepted")
	}
	if err := pt.Map(0x4000, 0x9001, 0); err == nil {
		t.Fatal("unaligned gpa accepted")
	}
}

func TestPageTableMapRange(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	if err := pt.MapRange(0x10000, 0x80000, 16, PTEWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got, _, ok := pt.Walk(VA(0x10000 + i*PageSize))
		if !ok || got != GPA(0x80000+i*PageSize) {
			t.Fatalf("page %d: got %#x ok=%v", i, uint64(got), ok)
		}
	}
}

func TestPageTableDistinctAddressSpaces(t *testing.T) {
	m := NewPhysMem(1 << 22)
	a := NewPageTable(m)
	b := NewPageTable(m)
	if err := a.Map(0x4000, 0x1000, PTEUser); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x4000, 0x2000, PTEUser); err != nil {
		t.Fatal(err)
	}
	ga, _, _ := a.Walk(0x4000)
	gb, _, _ := b.Walk(0x4000)
	if ga == gb {
		t.Fatal("two address spaces alias the same va to the same gpa")
	}
}

// Property: map then walk is the identity on (va, gpa) pairs for arbitrary
// canonical addresses.
func TestPageTableMapWalkProperty(t *testing.T) {
	m := NewPhysMem(1 << 26)
	pt := NewPageTable(m)
	f := func(vpn, ppn uint32) bool {
		va := VA(uint64(vpn) << PageShift)
		gpa := GPA(uint64(ppn) << PageShift)
		if err := pt.Map(va, gpa, PTEWrite|PTEUser); err != nil {
			return false
		}
		got, _, ok := pt.Walk(va)
		return ok && got == gpa
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPageTablePagesAccounting(t *testing.T) {
	m := NewPhysMem(1 << 22)
	pt := NewPageTable(m)
	// The table is m's only allocator: its pages are the frames handed out.
	tablePages := func() uint64 { return m.Size()/PageSize - m.allocNext }
	if tablePages() != 1 {
		t.Fatalf("fresh table has %d pages, want 1", tablePages())
	}
	if err := pt.Map(0x4000, 0x9000, 0); err != nil {
		t.Fatal(err)
	}
	// Root + PDPT + PD + PT.
	if tablePages() != 4 {
		t.Fatalf("after one map: %d pages, want 4", tablePages())
	}
	// Second page in the same leaf table allocates nothing new.
	if err := pt.Map(0x5000, 0xa000, 0); err != nil {
		t.Fatal(err)
	}
	if tablePages() != 4 {
		t.Fatalf("after adjacent map: %d pages, want 4", tablePages())
	}
}
