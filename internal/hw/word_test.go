package hw

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// fillWindow writes a byte pattern over the window's frames, uncharged, so
// loads read something other than zeros.
func (p *repeatPair) fillWindow(seed byte) {
	pat := make([]byte, repeatWindowBytes)
	for i := range pat {
		pat[i] = seed + byte(i*7)
	}
	p.both(func(c *CPU) { c.mach.Mem.Write(repeatDataFrameBase, pat) })
}

// windowBytes returns m's window frames, read uncharged.
func windowBytes(m *Machine) []byte {
	b := make([]byte, repeatWindowBytes)
	m.Mem.Read(repeatDataFrameBase, b)
	return b
}

// checkWord charges one word access on both machines, LoadU64 or StoreU64
// on a and ReadData or WriteData of the same 8 bytes on b, and requires
// the same error, the same value read (when the read succeeds) or the
// same window bytes (for a store), and the same machine state, then runs
// the eviction probe on both and requires the same state again.
func (p *repeatPair) checkWord(t *testing.T, va VA, store bool, v uint64) {
	t.Helper()
	a, b := p.a.Cores[0], p.b.Cores[0]
	var buf [8]byte
	var errA, errB error
	what := fmt.Sprintf("LoadU64(%#x)", uint64(va))
	if store {
		what = fmt.Sprintf("StoreU64(%#x, %#x)", uint64(va), v)
		errA = a.StoreU64(va, v)
		binary.LittleEndian.PutUint64(buf[:], v)
		errB = b.WriteData(va, buf[:], 8)
		if !bytes.Equal(windowBytes(p.a), windowBytes(p.b)) {
			t.Fatalf("%s left memory different from WriteData's", what)
		}
	} else {
		var got uint64
		got, errA = a.LoadU64(va)
		errB = b.ReadData(va, buf[:], 8)
		if want := binary.LittleEndian.Uint64(buf[:]); errA == nil && got != want {
			t.Fatalf("%s = %#x, ReadData read %#x", what, got, want)
		}
	}
	if !reflect.DeepEqual(errA, errB) {
		t.Fatalf("%s returned %v, ReadData/WriteData %v", what, errA, errB)
	}
	p.same(t, what)
	p.both(probe)
	p.same(t, what+" and the eviction probe")
}

// FuzzWordAccess holds LoadU64 and StoreU64 to ReadData and WriteData of
// the same 8 bytes on a fresh machine pair, through TestReadRepeatExact's
// state checker: the value or the memory bytes, the error, Clock, the
// counters, and every cache and TLB stat and LRU stamp must match. off
// picks the word anywhere in the window or in the unmapped page after it,
// so words are aligned or not, stay in a line or cross a line or a page,
// and fault. flags bit 0 runs under an EPT, bit 1 shrinks the D-TLB, bit
// 2 reads the window first (warm), bit 3 stores instead of loading, and
// bit 4 repeats the access (a TLB and L1D hit after a successful first).
func FuzzWordAccess(f *testing.F) {
	f.Fuzz(func(t *testing.T, off uint16, v uint64, flags uint8) {
		p := newRepeatPair(t, flags&1 != 0, flags&2 != 0)
		p.fillWindow(byte(v))
		if flags&4 != 0 {
			p.both(func(c *CPU) { _ = c.ReadData(repeatBase, nil, repeatWindowBytes) })
		}
		va := repeatBase + VA(int(off)%(repeatWindowBytes+PageSize))
		runs := 1 + int(flags>>4&1)
		for i := 0; i < runs; i++ {
			p.checkWord(t, va, flags&8 != 0, v+uint64(i))
		}
	})
}
