package hw

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// newChain builds a tiny L1->L2 chain so bursts wrap sets and evict often.
func newChain() *Cache {
	l2 := NewCache(CacheConfig{Name: "l2", Size: 16 * 1024, Ways: 4, Latency: 12}, nil, 200)
	return NewCache(CacheConfig{Name: "l1", Size: 2 * 1024, Ways: 2, Latency: 4}, l2, 0)
}

// chainOp is one random burst against the chain.
type chainOp struct {
	addr  HPA
	lines int
	write bool
}

// cacheWay is one way slot viewed as a {tag, lru} pair.
type cacheWay struct {
	tag, lru uint64
}

// setContents returns each set's ways sorted by (tag, lru) — the canonical
// per-set contents. Way slot positions are host-side layout, but the
// multiset of (tag, lru) pairs per set fully determines every simulated
// decision and must match exactly.
func setContents(c *Cache) [][]cacheWay {
	nsets := len(c.tags) / c.assoc
	out := make([][]cacheWay, nsets)
	for s := 0; s < nsets; s++ {
		set := make([]cacheWay, c.assoc)
		for w := range set {
			set[w] = cacheWay{tag: uint64(c.tags[s*c.assoc+w]), lru: c.lrus[s*c.assoc+w]}
		}
		sort.Slice(set, func(i, j int) bool {
			if set[i].tag != set[j].tag {
				return set[i].tag < set[j].tag
			}
			return set[i].lru < set[j].lru
		})
		out[s] = set
	}
	return out
}

// TestAccessRangeExactEquivalence drives two identical cache chains with
// the same access stream — one charging bursts per line, one via
// AccessRange — and requires identical costs, stats, clocks, and per-set
// contents (tags AND LRU stamps) at every level after every operation.
// The tiny geometry forces same-set wraparound, misses mid-burst, and
// evictions, exercising the fallback path; repeating bursts from a small
// pool exercises memo replay and stale-memo fallback.
func TestAccessRangeExactEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0xB10C))
	perLine := newChain()
	ranged := newChain()

	// A small pool of recurring bursts (IPC payload buffers in steady state)
	// interleaved with fresh random bursts that displace lines and stale the
	// memos.
	var pool []chainOp
	for i := 0; i < 12; i++ {
		pool = append(pool, chainOp{
			addr:  HPA(rng.Intn(1 << 14)),
			lines: 1 + rng.Intn(80), // up to 80 lines: wraps the 16-set L1
			write: rng.Intn(2) == 0,
		})
	}
	var ops []chainOp
	for i := 0; i < 4000; i++ {
		if rng.Intn(4) > 0 {
			ops = append(ops, pool[rng.Intn(len(pool))])
			continue
		}
		ops = append(ops, chainOp{
			addr:  HPA(rng.Intn(1 << 16)),
			lines: 1 + rng.Intn(80),
			write: rng.Intn(2) == 0,
		})
	}
	for i, op := range ops {
		var costA, costB uint64
		base := op.addr.LineBase()
		for l := 0; l < op.lines; l++ {
			costA += perLine.Access(base+HPA(l)<<LineShift, op.write)
		}
		costB += ranged.AccessRange(base, op.lines, op.write)
		if costA != costB {
			t.Fatalf("op %d (%d lines at %#x): cost %d (per-line) != %d (ranged)", i, op.lines, uint64(op.addr), costA, costB)
		}
		for lvl, pair := range [][2]*Cache{{perLine, ranged}, {perLine.next, ranged.next}} {
			a, b := pair[0], pair[1]
			if a.Stats != b.Stats {
				t.Fatalf("op %d level %d: stats %+v != %+v", i, lvl, a.Stats, b.Stats)
			}
			if a.clock != b.clock {
				t.Fatalf("op %d level %d: clock %d != %d", i, lvl, a.clock, b.clock)
			}
			ca, cb := setContents(a), setContents(b)
			for s := range ca {
				for w := range ca[s] {
					if ca[s][w] != cb[s][w] {
						t.Fatalf("op %d level %d set %d: contents %+v != %+v", i, lvl, s, ca[s], cb[s])
					}
				}
			}
		}
	}
}

// ReadRepeat cases run in a window of repeatPages mapped pages at
// repeatBase, followed by one unmapped page a run can fault on, then
// probePages mapped pages the eviction probe reads.
const (
	repeatBase          VA = 0x40_0000
	repeatPages            = 3
	probeBase              = repeatBase + (repeatPages+1)*PageSize
	probePages             = 7 // an L1D set's ways less one
	smallDTLBEntries       = 6
	repeatWindowBytes      = repeatPages * PageSize
	repeatMaxReps          = 8
	repeatDataFrameBase    = 0x10_0000
)

// repeatPair is two identical single-core machines: a charges each access
// with a fast path (ReadRepeat, LoadU64, StoreU64), b with the reference
// it stands for (the per-byte ReadData loop, ReadData, WriteData).
type repeatPair struct{ a, b *Machine }

// newRepeatPair builds the pair, natively or under an identity EPT, with a
// default or a small D-TLB.
func newRepeatPair(t *testing.T, ept, smallTLB bool) *repeatPair {
	t.Helper()
	cfg := MachineConfig{Cores: 1, MemBytes: 1 << 26}
	if smallTLB {
		cfg.DTLBEntries = smallDTLBEntries
	}
	p := &repeatPair{a: NewMachine(cfg), b: NewMachine(cfg)}
	for _, m := range []*Machine{p.a, p.b} {
		cpu := m.Cores[0]
		pt := NewPageTable(m.Mem)
		cpu.CR3 = pt.Root
		if ept {
			installVirt(t, m, cpu)
		}
		if err := pt.MapRange(repeatBase, repeatDataFrameBase, repeatPages, PTEUser|PTEWrite); err != nil {
			t.Fatal(err)
		}
		if err := pt.MapRange(probeBase, repeatDataFrameBase+repeatWindowBytes, probePages, PTEUser|PTEWrite); err != nil {
			t.Fatal(err)
		}
		cpu.Mode = ModeUser
	}
	return p
}

// both applies op to each machine's core.
func (p *repeatPair) both(op func(c *CPU)) {
	op(p.a.Cores[0])
	op(p.b.Cores[0])
}

// check charges reps one-byte reads of each byte of [va, va+n) on both
// machines and requires the same error and the same machine state, then
// runs the eviction probe on both and requires the same state again.
func (p *repeatPair) check(t *testing.T, va VA, n, reps int) error {
	t.Helper()
	errA := p.a.Cores[0].ReadRepeat(va, n, reps)
	errB := func() error {
		c := p.b.Cores[0]
		for i := 0; i < n; i++ {
			for r := 0; r < reps; r++ {
				if err := c.ReadData(va+VA(i), nil, 1); err != nil {
					return err
				}
			}
		}
		return nil
	}()
	what := fmt.Sprintf("ReadRepeat(%#x, %d, %d)", uint64(va), n, reps)
	if !reflect.DeepEqual(errA, errB) {
		t.Fatalf("%s returned %v, the per-byte loop %v", what, errA, errB)
	}
	p.same(t, what)
	p.both(probe)
	p.same(t, what+" and the eviction probe")
	return errA
}

// probe evicts all but the most recent old entry of the small D-TLB and
// all but the most recent old line of every L1D set, reading the window
// after each: which of the window's pages and lines survived to hit
// depends on every LRU stamp, so a wrong stamp moves the clock and the
// stats.
func probe(c *CPU) {
	for pg := VA(0); pg < smallDTLBEntries-1; pg++ {
		_ = c.ReadData(probeBase+pg*PageSize, nil, 1)
	}
	for pg := VA(0); pg < repeatPages; pg++ {
		_ = c.ReadData(repeatBase+pg*PageSize, nil, 1)
	}
	for off := VA(0); off < probePages*PageSize; off += LineSize {
		_ = c.ReadData(probeBase+off, nil, 1)
	}
	for off := VA(0); off < repeatWindowBytes; off += LineSize {
		_ = c.ReadData(repeatBase+off, nil, 1)
	}
}

// tlbEntries returns t's entries ordered by LRU stamp.
func tlbEntries(t *TLB) []tlbEntry {
	es := append([]tlbEntry(nil), t.entries...)
	sort.Slice(es, func(i, j int) bool { return es[i].lru < es[j].lru })
	return es
}

// same requires both machines to be in the same simulated state: the
// core's clock and counters, both TLBs' stats, clocks and entries in LRU
// order, every cache level's stats, clock and per-set (tag, LRU)
// contents, and the VM-exit counts.
func (p *repeatPair) same(t *testing.T, after string) {
	t.Helper()
	a, b := p.a.Cores[0], p.b.Cores[0]
	if a.Clock != b.Clock || a.Counters != b.Counters {
		t.Fatalf("after %s: clock %d counters %+v, reference clock %d counters %+v",
			after, a.Clock, a.Counters, b.Clock, b.Counters)
	}
	for _, pair := range [][2]*TLB{{a.DTLB, b.DTLB}, {a.ITLB, b.ITLB}} {
		x, y := pair[0], pair[1]
		if x.Stats != y.Stats || x.clock != y.clock || !reflect.DeepEqual(tlbEntries(x), tlbEntries(y)) {
			t.Fatalf("after %s: TLB stats %+v clock %d entries %+v, reference %+v clock %d entries %+v",
				after, x.Stats, x.clock, tlbEntries(x), y.Stats, y.clock, tlbEntries(y))
		}
	}
	for _, pair := range [][2]*Cache{{a.L1I, b.L1I}, {a.L1D, b.L1D}, {a.L2, b.L2}, {p.a.L3, p.b.L3}} {
		x, y := pair[0], pair[1]
		if x.Stats != y.Stats || x.clock != y.clock {
			t.Fatalf("after %s: %s stats %+v clock %d, reference %+v clock %d",
				after, x.cfg.Name, x.Stats, x.clock, y.Stats, y.clock)
		}
		// Equal way arrays are equal per-set contents; only a difference
		// needs the canonical, slot-order-free comparison.
		if (!slices.Equal(x.tags, y.tags) || !slices.Equal(x.lrus, y.lrus)) &&
			!reflect.DeepEqual(setContents(x), setContents(y)) {
			t.Fatalf("after %s: %s set contents differ from the reference's", after, x.cfg.Name)
		}
	}
	if !reflect.DeepEqual(p.a.VMExits, p.b.VMExits) {
		t.Fatalf("after %s: VM exits %v, reference %v", after, p.a.VMExits, p.b.VMExits)
	}
}

// TestReadRepeatExact drives ReadRepeat and the per-byte ReadData loop it
// stands for on two identical machines, natively and under an EPT, with a
// default and a small D-TLB. Random runs start anywhere in the window and
// stay in one line, cross lines, cross a page or run into the unmapped
// page, at 1 to 8 reads per byte; between them the TLB or every cache is
// flushed (cold) or part of the window is read (warm). After every run
// and every eviction probe the two machines must match exactly.
func TestReadRepeatExact(t *testing.T) {
	rng := rand.New(rand.NewSource(0x0B17))
	for _, ept := range []bool{false, true} {
		for _, small := range []bool{false, true} {
			p := newRepeatPair(t, ept, small)
			faults := 0
			for i := 0; i < 120; i++ {
				switch rng.Intn(4) {
				case 0:
					p.both(func(c *CPU) { c.DTLB.FlushAll() })
				case 1:
					p.both(func(c *CPU) {
						for _, l := range []*Cache{c.L1D, c.L2, c.mach.L3} {
							l.Flush()
						}
					})
				case 2:
					off, n := VA(rng.Intn(repeatWindowBytes)), rng.Intn(PageSize)
					p.both(func(c *CPU) { _ = c.ReadData(repeatBase+off, nil, n) })
				}
				var off, n int
				switch rng.Intn(4) {
				case 0: // within a line or across one boundary
					off, n = rng.Intn(repeatWindowBytes), 1+rng.Intn(LineSize)
				case 1: // across several lines
					off, n = rng.Intn(repeatWindowBytes), 1+rng.Intn(10*LineSize)
				case 2: // across a page boundary
					off = PageSize*(1+rng.Intn(repeatPages-1)) - 1 - rng.Intn(5*LineSize)
					n = 2 + rng.Intn(10*LineSize)
				default: // into the unmapped page
					off = repeatWindowBytes - 1 - rng.Intn(5*LineSize)
					n = 1 + rng.Intn(10*LineSize)
				}
				if p.check(t, repeatBase+VA(off), n, 1+rng.Intn(repeatMaxReps)) != nil {
					faults++
				}
			}
			if faults == 0 {
				t.Errorf("ept=%v small=%v: no run faulted", ept, small)
			}
		}
	}
}

// FuzzReadRepeat runs one ReadRepeat against the per-byte ReadData loop on
// a fresh machine pair through TestReadRepeatExact's checker. flags bit 0
// runs under an EPT, bit 1 shrinks the D-TLB, bit 2 reads the window
// first (warm), and bit 3 repeats the run (warm from itself).
func FuzzReadRepeat(f *testing.F) {
	f.Fuzz(func(t *testing.T, off, n uint16, reps, flags uint8) {
		p := newRepeatPair(t, flags&1 != 0, flags&2 != 0)
		if flags&4 != 0 {
			p.both(func(c *CPU) { _ = c.ReadData(repeatBase, nil, repeatWindowBytes) })
		}
		va := repeatBase + VA(int(off)%repeatWindowBytes)
		runs := 1 + int(flags>>3&1)
		for i := 0; i < runs; i++ {
			p.check(t, va, int(n)%(2*PageSize), int(reps)%(repeatMaxReps+1))
		}
	})
}

// driveBlocks performs a mixed burst workload: multi-KB reads and writes
// spanning page boundaries, single-byte touches, code touches, a TLB
// shootdown landing between two halves of a block-sized access, and a
// frame recycle under an in-flight sequence.
func driveBlocks(t *testing.T, m *Machine, pt *PageTable) {
	t.Helper()
	c := m.Cores[0]
	buf := make([]byte, 8192)
	for i := range buf {
		buf[i] = byte(i)
	}
	// 4KB-aligned page burst (the dominant shape in the suite).
	if err := c.WriteData(0x40_0000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}
	// Cross-page 8KB read, unaligned start.
	if err := c.ReadData(0x40_0040, buf, 8192); err != nil {
		t.Fatal(err)
	}
	// Sub-line and line-straddling accesses.
	if err := c.WriteData(0x40_1037, buf[:8], 8); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadData(0x40_103f, nil, 2); err != nil {
		t.Fatal(err)
	}
	// Code-side burst through L1I.
	if err := c.TouchCode(0x40_2000, 4096+128); err != nil {
		t.Fatal(err)
	}

	// TLB shootdown spanning a block boundary: read the first half of a
	// 2-page block, shoot down both TLBs machine-wide, then read the
	// second half — the second half must re-walk.
	if err := c.ReadData(0x40_4000, nil, 4096); err != nil {
		t.Fatal(err)
	}
	for _, cpu := range m.Cores {
		cpu.DTLB.FlushAll()
		cpu.ITLB.FlushAll()
	}
	if err := c.ReadData(0x40_5000, nil, 4096); err != nil {
		t.Fatal(err)
	}

	// Frame recycle under an executing block: remap the VA to a fresh
	// frame mid-sequence; the next burst must translate to the new frame
	// and charge accordingly.
	if err := pt.Map(0x40_6000, 0xA000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteData(0x40_6000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}
	pt.Unmap(0x40_6000)
	for _, cpu := range m.Cores {
		cpu.DTLB.FlushAll()
	}
	if err := pt.Map(0x40_6000, 0xC000, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadData(0x40_6000, buf[:4096], 4096); err != nil {
		t.Fatal(err)
	}

	// Fault mid-stream: an unmapped VA faults after the mapped prefix has
	// been charged.
	if err := c.WriteData(0x41_0000, buf[:64], 64); err == nil {
		t.Fatal("expected page fault on unmapped VA")
	}
}

// TestBlockChargeLockstep pins the burst workload's simulated outcome
// (clock, counters and every cache level's stats, across a TLB shootdown
// that splits a block and a frame recycle under the access stream) to the
// values that charging each line with its own Cache.Access call produces.
func TestBlockChargeLockstep(t *testing.T) {
	m := NewMachine(MachineConfig{Cores: 2, MemBytes: 1 << 26, DTLBEntries: 4})
	pt := NewPageTable(m.Mem)
	for _, cpu := range m.Cores {
		cpu.CR3 = pt.Root
		cpu.Mode = ModeUser
	}
	if err := pt.MapRange(0x40_0000, 0x8000, 16, PTEUser|PTEWrite); err != nil {
		t.Fatal(err)
	}
	driveBlocks(t, m, pt)

	type snapshot struct {
		Clock            uint64
		Counters         CPUCounters
		L1I, L1D, L2, L3 CacheStats
	}
	c := m.Cores[0]
	got := snapshot{
		Clock: c.Clock, Counters: c.Counters,
		L1I: c.L1I.Stats, L1D: c.L1D.Stats, L2: c.L2.Stats, L3: m.L3.Stats,
	}
	want := snapshot{
		Clock:    86054,
		Counters: CPUCounters{DataAccesses: 451, CodeFetches: 66, PageWalks: 10},
		L1I:      CacheStats{Accesses: 66, Hits: 0, Misses: 66},
		L1D:      CacheStats{Accesses: 491, Hits: 166, Misses: 325},
		L2:       CacheStats{Accesses: 391, Hits: 64, Misses: 327},
		L3:       CacheStats{Accesses: 327, Hits: 0, Misses: 327},
	}
	if got != want {
		t.Fatalf("burst workload:\n got %+v\nwant %+v", got, want)
	}
}
