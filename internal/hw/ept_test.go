package hw

import (
	"testing"
	"testing/quick"
)

func newTestEPT(t *testing.T, memBits int) (*PhysMem, *EPT) {
	t.Helper()
	m := NewPhysMem(1 << memBits)
	return m, NewEPT(m)
}

func TestEPT4KMapTranslate(t *testing.T) {
	_, e := newTestEPT(t, 24)
	if err := e.Map(0x3000, 0x7000, PageSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	hpa, v := e.Translate(0x3abc, AccessRead)
	if v != nil {
		t.Fatal(v)
	}
	if hpa != 0x7abc {
		t.Fatalf("got %#x, want 0x7abc", uint64(hpa))
	}
}

func TestEPT2MMapTranslate(t *testing.T) {
	m := NewPhysMem(1 << 30)
	e := NewEPT(m)
	if err := e.Map(GPA(2*Page2MSize), HPA(5*Page2MSize), Page2MSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	hpa, v := e.Translate(GPA(2*Page2MSize)+0x1234, AccessWrite)
	if v != nil {
		t.Fatal(v)
	}
	if want := HPA(5*Page2MSize) + 0x1234; hpa != want {
		t.Fatalf("got %#x, want %#x", uint64(hpa), uint64(want))
	}
}

func TestEPT1GMapTranslate(t *testing.T) {
	m := NewPhysMem(4 << 30)
	e := NewEPT(m)
	if err := e.Map(0, 0, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	hpa, v := e.Translate(0x1234_5678, AccessExec)
	if v != nil {
		t.Fatal(v)
	}
	if hpa != 0x1234_5678 {
		t.Fatalf("identity 1G translate: got %#x", uint64(hpa))
	}
}

func TestEPTViolationOnHole(t *testing.T) {
	_, e := newTestEPT(t, 24)
	if _, v := e.Translate(0xdead000, AccessRead); v == nil {
		t.Fatal("expected EPT violation for unmapped gpa")
	}
}

func TestEPTPermissionViolation(t *testing.T) {
	_, e := newTestEPT(t, 24)
	if err := e.Map(0x3000, 0x7000, PageSize, EPTRead|EPTExec); err != nil {
		t.Fatal(err)
	}
	if _, v := e.Translate(0x3000, AccessWrite); v == nil {
		t.Fatal("expected write-permission violation")
	}
	if _, v := e.Translate(0x3000, AccessRead); v != nil {
		t.Fatalf("read should succeed: %v", v)
	}
}

func TestEPTUnalignedMapRejected(t *testing.T) {
	_, e := newTestEPT(t, 24)
	if err := e.Map(0x3001, 0x7000, PageSize, EPTAll); err == nil {
		t.Fatal("unaligned gpa accepted")
	}
	if err := e.Map(GPA(Page2MSize/2), 0, Page2MSize, EPTAll); err == nil {
		t.Fatal("2M map not 2M-aligned accepted")
	}
	if err := e.Map(0, 0, 12345, EPTAll); err == nil {
		t.Fatal("bogus size accepted")
	}
}

func TestEPTShallowCloneSharesMappings(t *testing.T) {
	_, e := newTestEPT(t, 24)
	if err := e.Map(0x3000, 0x7000, PageSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	c := e.CloneShallow()
	hpa, v := c.Translate(0x3000, AccessRead)
	if v != nil || hpa != 0x7000 {
		t.Fatalf("clone lost parent mapping: hpa=%#x v=%v", uint64(hpa), v)
	}
	if c.OwnedPages != 1 {
		t.Fatalf("shallow clone owns %d pages, want 1 (root only)", c.OwnedPages)
	}
}

// TestEPTRemapCR3FourPages verifies the paper's §4.3 claim: binding a
// client to a server modifies "only four pages" of the server's EPT when
// the base EPT maps memory with 1 GiB hugepages.
func TestEPTRemapCR3FourPages(t *testing.T) {
	m := NewPhysMem(4 << 30)
	base := NewEPT(m)
	if err := base.MapIdentityRange(0, 4, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	serverEPT := base.CloneShallow()

	clientCR3 := GPA(0x0040_0000) // somewhere in the first 1 GiB hugepage
	serverCR3 := HPA(0x1234_5000)
	copied, err := serverEPT.RemapGPA(clientCR3, serverCR3, EPTRead|EPTWrite)
	if err != nil {
		t.Fatal(err)
	}
	// Walking down from the (already owned) cloned root: split 1G -> new PD,
	// split 2M -> new PT... The root is owned; level-3 table must be copied
	// (1 page), the 1G entry splits into a PD (1 page) and the 2M entry
	// splits into a PT (1 page). Plus the root was copied at clone time:
	// four modified pages in total, matching the paper.
	totalModified := copied + 1 // + cloned root
	if totalModified != 4 {
		t.Fatalf("remap modified %d pages (incl. root), want 4", totalModified)
	}

	// The clone now translates the client's CR3 GPA to the server's root.
	hpa, v := serverEPT.Translate(clientCR3, AccessRead)
	if v != nil || hpa != serverCR3 {
		t.Fatalf("remapped translate: hpa=%#x v=%v", uint64(hpa), v)
	}
	// Neighbouring pages in the split region still translate identically.
	hpa, v = serverEPT.Translate(clientCR3+PageSize, AccessRead)
	if v != nil || hpa != HPA(clientCR3+PageSize) {
		t.Fatalf("neighbour page broken by split: hpa=%#x v=%v", uint64(hpa), v)
	}
	// And the base EPT is untouched.
	hpa, v = base.Translate(clientCR3, AccessRead)
	if v != nil || hpa != HPA(clientCR3) {
		t.Fatalf("base EPT corrupted by clone remap: hpa=%#x v=%v", uint64(hpa), v)
	}
}

func TestEPTRemapTwiceReusesOwnedPath(t *testing.T) {
	m := NewPhysMem(4 << 30)
	base := NewEPT(m)
	if err := base.MapIdentityRange(0, 1, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	c := base.CloneShallow()
	if _, err := c.RemapGPA(0x40_0000, 0x9000, EPTAll); err != nil {
		t.Fatal(err)
	}
	copied, err := c.RemapGPA(0x40_1000, 0xa000, EPTAll) // same leaf table
	if err != nil {
		t.Fatal(err)
	}
	if copied != 0 {
		t.Fatalf("second remap in same leaf copied %d pages, want 0", copied)
	}
}

func TestEPTDeepCloneIndependent(t *testing.T) {
	m := NewPhysMem(1 << 26)
	e := NewEPT(m)
	if err := e.Map(0x3000, 0x7000, PageSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	d := e.CloneDeep()
	if _, err := d.RemapGPA(0x3000, 0xb000, EPTAll); err != nil {
		t.Fatal(err)
	}
	hpa, _ := e.Translate(0x3000, AccessRead)
	if hpa != 0x7000 {
		t.Fatalf("deep clone modified parent: parent now %#x", uint64(hpa))
	}
	hpa, _ = d.Translate(0x3000, AccessRead)
	if hpa != 0xb000 {
		t.Fatalf("deep clone remap lost: %#x", uint64(hpa))
	}
	if d.OwnedPages <= e.OwnedPages-1 {
		t.Fatalf("deep clone owns %d pages, parent %d", d.OwnedPages, e.OwnedPages)
	}
}

func TestEPTTranslateTraceLengths(t *testing.T) {
	m := NewPhysMem(4 << 30)
	e := NewEPT(m)
	if err := e.Map(0, 0, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	_, trace, v := e.TranslateInto(0x1000, AccessRead, nil)
	if v != nil {
		t.Fatal(v)
	}
	if len(trace) != 2 {
		t.Fatalf("1G walk read %d entries, want 2 (PML4+PDPT)", len(trace))
	}
	if err := e.Map(GPA(2<<30), HPA(2<<30), PageSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	_, trace, v = e.TranslateInto(GPA(2<<30), AccessRead, nil)
	if v != nil {
		t.Fatal(v)
	}
	if len(trace) != 4 {
		t.Fatalf("4K walk read %d entries, want 4", len(trace))
	}
}

// Property: identity 1G mapping translates every in-range GPA to itself.
func TestEPTIdentityProperty(t *testing.T) {
	m := NewPhysMem(4 << 30)
	e := NewEPT(m)
	if err := e.MapIdentityRange(0, 4, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	f := func(g uint32) bool {
		gpa := GPA(g)
		hpa, v := e.Translate(gpa, AccessRead)
		return v == nil && uint64(hpa) == uint64(gpa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEPTMapRefusesSilentSplit(t *testing.T) {
	m := NewPhysMem(4 << 30)
	e := NewEPT(m)
	if err := e.Map(0, 0, Page1GSize, EPTAll); err != nil {
		t.Fatal(err)
	}
	if err := e.Map(0x1000, 0x1000, PageSize, EPTAll); err == nil {
		t.Fatal("Map through an existing hugepage should be rejected")
	}
}
