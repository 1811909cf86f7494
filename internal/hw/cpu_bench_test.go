package hw

import "testing"

// benchMachine builds a machine with a deliberately tiny DTLB so that
// cycling over pages misses the TLB on every access, exposing the walk
// path rather than the TLB hit path.
func benchMachine(b *testing.B) *CPU {
	b.Helper()
	m := NewMachine(MachineConfig{Cores: 1, MemBytes: 1 << 26, DTLBEntries: 4})
	cpu := m.Cores[0]
	pt := NewPageTable(m.Mem)
	cpu.CR3 = pt.Root
	cpu.Mode = ModeUser
	for i := 0; i < 16; i++ {
		if err := pt.Map(VA(0x40_0000+i*PageSize), GPA(0x8000+i*PageSize), PTEUser|PTEWrite); err != nil {
			b.Fatal(err)
		}
	}
	return cpu
}

// BenchmarkTranslateTLBHit measures the dominant fast path: a data access
// whose translation is resident in the DTLB.
func BenchmarkTranslateTLBHit(b *testing.B) {
	cpu := benchMachine(b)
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cpu.ReadData(0x40_0000, buf[:], 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateWalk measures a TLB-missing access (16 pages cycled
// through a 4-entry TLB): every access runs the full two-dimensional walk.
func BenchmarkTranslateWalk(b *testing.B) {
	cpu := benchMachine(b)
	var buf [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := VA(0x40_0000 + (i%16)*PageSize)
		if err := cpu.ReadData(va, buf[:], 8); err != nil {
			b.Fatal(err)
		}
	}
}
