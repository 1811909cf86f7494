package hw

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestPhysMemReadWriteRoundTrip(t *testing.T) {
	m := NewPhysMem(1 << 20)
	data := []byte("hello physical world")
	m.Write(0x1234, data)
	got := make([]byte, len(data))
	m.Read(0x1234, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("read back %q, want %q", got, data)
	}
}

func TestPhysMemCrossFrame(t *testing.T) {
	m := NewPhysMem(1 << 20)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := HPA(PageSize - 100) // spans 4 frames
	m.Write(addr, data)
	got := make([]byte, len(data))
	m.Read(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("cross-frame write/read mismatch")
	}
}

func TestPhysMemZeroOnAlloc(t *testing.T) {
	m := NewPhysMem(1 << 20)
	f := m.MustAllocFrame()
	m.Write(f, []byte{1, 2, 3})
	m.FreeFrame(f)
	f2 := m.MustAllocFrame()
	if f2 != f {
		t.Fatalf("expected recycled frame %#x, got %#x", uint64(f), uint64(f2))
	}
	got := make([]byte, 3)
	m.Read(f2, got)
	if got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("recycled frame not zeroed: %v", got)
	}
}

func TestPhysMemU64(t *testing.T) {
	m := NewPhysMem(1 << 20)
	m.WriteU64(0x2000, 0xdeadbeefcafebabe)
	if v := m.ReadU64(0x2000); v != 0xdeadbeefcafebabe {
		t.Fatalf("got %#x", v)
	}
}

func TestPhysMemAllocatesFromTop(t *testing.T) {
	m := NewPhysMem(1 << 20)
	f := m.MustAllocFrame()
	if uint64(f) != 1<<20-PageSize {
		t.Fatalf("first frame %#x, want top frame", uint64(f))
	}
	if floor := HPA(m.allocNext * PageSize); floor != f {
		t.Fatalf("floor %#x, want %#x", uint64(floor), uint64(f))
	}
}

func TestPhysMemExhaustion(t *testing.T) {
	m := NewPhysMem(4 * PageSize)
	for i := 0; i < 4; i++ {
		if _, err := m.AllocFrame(); err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
	}
	if _, err := m.AllocFrame(); err == nil {
		t.Fatal("expected exhaustion error")
	}
}

func TestPhysMemUnalignedSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unaligned size")
		}
	}()
	NewPhysMem(PageSize + 1)
}

func TestPhysMemOutOfRangePanics(t *testing.T) {
	m := NewPhysMem(PageSize)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	m.Read(HPA(PageSize), make([]byte, 1))
}

// Property: for any offset/content, a write followed by a read at the same
// address returns the content.
func TestPhysMemRoundTripProperty(t *testing.T) {
	m := NewPhysMem(1 << 22)
	f := func(off uint32, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := HPA(uint64(off) % (1<<22 - uint64(len(data))))
		m.Write(addr, data)
		got := make([]byte, len(data))
		m.Read(addr, got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
