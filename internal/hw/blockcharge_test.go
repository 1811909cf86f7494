package hw

import (
	"math/rand"
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
