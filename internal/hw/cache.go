package hw

import (
	"fmt"

	"skybridge/internal/obs"
)

// CacheConfig describes one level of a set-associative cache.
type CacheConfig struct {
	Name    string
	Size    int // total bytes
	Ways    int
	Latency uint64 // cycles charged on a hit at this level
}

// CacheStats are the observable counters of one cache level, used to
// regenerate Table 1 (processor-structure pollution).
type CacheStats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// Cache is one level of a set-associative cache with LRU replacement,
// indexed by host physical address at 64-byte line granularity. Levels are
// chained via next; a miss at the last level charges memLatency.
//
// Host-side layout: tags and LRU stamps live in separate flat
// [nsets*assoc] arrays (structure of arrays). Tags are uint32 (line
// address + 1, 0 = invalid; exact for physical memories below
// maxMemBytes), so scanning a 16-way set for a tag touches a single
// 64-byte host cache line — the scan is the hottest loop in the whole
// simulator, and for an L3-sized cache the tag array is a quarter the
// footprint of an array-of-pairs layout. Slot positions within a set are pure host-side
// state: which *line* is evicted is decided by the unique LRU stamps, not
// by slot position, so any placement policy yields identical simulated
// costs, stats, and contents. AccessRange additionally memoizes recurring
// bursts (see below).
type Cache struct {
	cfg        CacheConfig
	tags       []uint32 // flattened [nsets][assoc]
	lrus       []uint64 // flattened [nsets][assoc], parallel to tags
	assoc      int
	setMask    uint64
	next       *Cache
	memLatency uint64
	clock      uint64 // monotonic counter for LRU ordering
	Stats      CacheStats

	// memo records, per recurring burst shape (start line, length), the way
	// slot each line was last found in, so AccessRange can replay an all-hit
	// burst with one tag check and one LRU store per line instead of a set
	// scan. Direct-mapped by a hash of the burst key; collisions simply
	// re-record. Host-side only: every replayed line is validated by tag, so
	// a moved or evicted line drops back to the per-line path.
	memo []burstMemo

	// lineIdx is a direct-mapped line -> way-slot memo probed before every
	// set scan: entry lineHash(line) holds slot+1 where the line was last
	// seen (0 = empty). A probe is validated by the tag at the recorded
	// slot, which is sound without a set check: a line is only ever stored
	// in its own set, and two distinct lines share a uint32 tag only if
	// they are 2^32 lines apart (beyond maxMemBytes), so a matching
	// tag can only be the right line in the right set. Stale entries
	// (evicted or collided) fail validation and fall through to the scan.
	lineIdx  []int32
	lineBits uint
}

// maxMemBytes bounds the physical memory a cache can tag: a line's uint32
// tag is its line address + 1, so the last line below 2^38 bytes would
// wrap to the invalid tag 0, and a line 2^38 bytes above another would
// alias it.
const maxMemBytes = 1 << 38

// burstMemo is one recorded burst: its key (start line << 7 | length) and
// the way-array index each line was last found at.
type burstMemo struct {
	key uint64
	idx []int32
}

// memoTabBits sizes the direct-mapped burst-memo table (per cache level).
const memoTabBits = 12

// memoHash spreads burst keys over the table (Fibonacci hashing).
func memoHash(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - memoTabBits))
}

// NewCache builds a cache level. next may be nil, in which case a miss
// costs memLatency (DRAM). Size must be a power-of-two multiple of
// Ways*LineSize.
func NewCache(cfg CacheConfig, next *Cache, memLatency uint64) *Cache {
	lines := cfg.Size / LineSize
	if lines == 0 || lines%cfg.Ways != 0 {
		panic(fmt.Sprintf("hw: cache %q: %d lines not divisible by %d ways", cfg.Name, lines, cfg.Ways))
	}
	nsets := lines / cfg.Ways
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("hw: cache %q: set count %d not a power of two", cfg.Name, nsets))
	}
	// Size the line->slot memo at 2x the line count (load factor 0.5),
	// clamped to sane bounds.
	bits := uint(10)
	for 1<<bits < 2*lines && bits < 18 {
		bits++
	}
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint32, lines),
		lrus:       make([]uint64, lines),
		assoc:      cfg.Ways,
		setMask:    uint64(nsets - 1),
		next:       next,
		memLatency: memLatency,
		lineIdx:    make([]int32, 1<<bits),
		lineBits:   bits,
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access touches the line containing h and returns the cycles the access
// cost: this level's latency plus, on a miss, the cost of filling from the
// next level (or DRAM).
//
// The scan is a single merged pass: while looking for the tag it also
// tracks the eviction victim, so a miss already knows its fill slot. Hit
// lines stay in place: slot positions are pure host-side layout; every
// simulated outcome (hit/miss, cost, stats, eviction victim) depends only
// on the set's tag/LRU contents, which evolve identically under any slot
// ordering.
func (c *Cache) Access(h HPA, write bool) uint64 {
	c.clock++
	c.Stats.Accesses++
	key := uint64(h)>>LineShift + 1 // stored tag: line address + 1, 0 = invalid
	k32 := uint32(key)
	lh := c.lineHash(key)
	if ix := c.lineIdx[lh]; ix > 0 && c.tags[ix-1] == k32 {
		c.Stats.Hits++
		c.lrus[ix-1] = c.clock
		return c.cfg.Latency
	}
	base := int((key-1)&c.setMask) * c.assoc
	tags := c.tags[base : base+c.assoc]
	lrus := c.lrus[base : base+c.assoc : base+c.assoc]

	// Victim selection is a single argmin over LRU stamps: a free way always
	// has stamp 0 (never filled, or cleared by Flush) while a filled way's
	// stamp is >= 1, so the argmin picks the first free way in slot order
	// when one exists and the unique LRU way otherwise — exactly the
	// first-free-else-LRU policy, one comparison per way.
	victim, minLru := 0, ^uint64(0)
	for i := 0; i < len(tags); i++ {
		if tags[i] == k32 {
			c.Stats.Hits++
			lrus[i] = c.clock
			c.lineIdx[lh] = int32(base+i) + 1
			return c.cfg.Latency
		}
		if l := lrus[i]; l < minLru {
			victim, minLru = i, l
		}
	}
	c.Stats.Misses++
	cost := c.cfg.Latency
	if c.next != nil {
		cost += c.next.Access(h, write)
	} else {
		cost += c.memLatency
	}
	tags[victim] = k32
	lrus[victim] = c.clock
	c.lineIdx[lh] = int32(base+victim) + 1
	return cost
}

// accessRepeat is k consecutive Access calls to the line holding h, read
// only, returning the cycles they cost. The first may miss and fill; either
// way it leaves the line resident and lineIdx pointing at its slot, so the
// rest are hits, applied in bulk to the clock, Accesses, Hits and the
// line's LRU stamp.
func (c *Cache) accessRepeat(h HPA, k uint64) uint64 {
	cost := c.Access(h, false)
	k--
	c.clock += k
	c.Stats.Accesses += k
	c.Stats.Hits += k
	c.lrus[c.lineIdx[c.lineHash(uint64(h)>>LineShift+1)]-1] = c.clock
	return cost + k*c.cfg.Latency
}

// lineHash spreads line keys over the lineIdx memo (Fibonacci hashing).
func (c *Cache) lineHash(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> (64 - c.lineBits))
}

// memoMinLines gates burst memoization: below this length, the memo-table
// probe costs more than the set scans it saves.
const memoMinLines = 8

// AccessRange touches the nLines consecutive lines starting at the line
// containing h and returns the total cycles charged. It is exactly
// equivalent to nLines sequential Access calls — identical clock advance,
// per-line costs, LRU stamps, and eviction decisions; the per-level stats
// are batched but reach the same final counts.
//
// Recurring bursts (the same payload buffers copied every IPC round trip)
// are memoized: the way slot each line was found in is recorded, and the
// next occurrence of the same burst replays with one tag check and one LRU
// store per line. A line whose tag no longer matches its recorded slot
// (moved or evicted by any fill since) falls back to the per-line path from
// that point, which re-records the slots.
func (c *Cache) AccessRange(h HPA, nLines int, write bool) uint64 {
	key := uint64(h)>>LineShift + 1
	if nLines == 1 {
		// Single-line access: the dominant non-burst case (individual loads
		// and stores).
		return c.Access(h, write)
	}
	if nLines >= memoMinLines && nLines < 128 {
		mk := key<<7 | uint64(nLines)
		if c.memo == nil {
			c.memo = make([]burstMemo, 1<<memoTabBits)
		}
		e := &c.memo[memoHash(mk)]
		if e.key == mk {
			m := e.idx
			tags, lrus := c.tags, c.lrus
			clk := c.clock
			for i := 0; i < nLines; i++ {
				ix := m[i]
				if tags[ix] != uint32(key+uint64(i)) {
					// The prefix stamps already written are exactly the hits
					// the per-line path would have produced; account for
					// them and continue per line, re-recording slots.
					c.clock = clk + uint64(i)
					c.Stats.Accesses += uint64(i)
					c.Stats.Hits += uint64(i)
					return uint64(i)*c.cfg.Latency + c.rangeLines(key, i, nLines, write, m)
				}
				lrus[ix] = clk + uint64(i) + 1
			}
			c.clock = clk + uint64(nLines)
			c.Stats.Accesses += uint64(nLines)
			c.Stats.Hits += uint64(nLines)
			return uint64(nLines) * c.cfg.Latency
		}
		// Miss or collision: (re-)record this burst in the slot.
		if len(e.idx) != nLines {
			e.idx = make([]int32, nLines)
		}
		e.key = mk
		return c.rangeLines(key, 0, nLines, write, e.idx)
	}
	return c.rangeLines(key, 0, nLines, write, nil)
}

// rangeLines is AccessRange's per-line path: lines from..nLines-1 of the
// burst starting at line key-1, with Access's exact state transitions.
// When rec is non-nil, each line's final way index is recorded into rec[i]
// — hits record where the line was found, misses record the way they were
// filled into.
//
// Runs of consecutive missing lines are charged against the next level with
// one AccessRange call per run instead of one Access per line, so the next
// level's burst memo and merged scan apply to streaming bursts too. This is
// exactly equivalent: this level's per-line state transitions (clock, LRU
// stamp or fill) are unchanged and the next level sees the same lines in
// the same ascending order — the two levels' states are disjoint, so
// whether the next-level charges interleave with this level's fills cannot
// affect any outcome, and the total cost is the same sum.
func (c *Cache) rangeLines(key uint64, from, nLines int, write bool, rec []int32) uint64 {
	var cost uint64
	var hits, misses uint64
	tags, lrus, assoc := c.tags, c.lrus, c.assoc
	clock := c.clock
	runStart, runLen := 0, 0 // pending run of missing lines for c.next
line:
	for i := from; i < nLines; i++ {
		k := key + uint64(i)
		k32 := uint32(k)
		clock++
		lh := c.lineHash(k)
		if ix := c.lineIdx[lh]; ix > 0 && tags[ix-1] == k32 {
			hits++
			lrus[ix-1] = clock
			cost += c.cfg.Latency
			if rec != nil {
				rec[i] = ix - 1
			}
			continue
		}
		base := int((k-1)&c.setMask) * assoc
		end := base + assoc
		victim, minLru := base, ^uint64(0)
		for j := base; j < end; j++ {
			if tags[j] == k32 {
				hits++
				lrus[j] = clock
				cost += c.cfg.Latency
				if rec != nil {
					rec[i] = int32(j)
				}
				c.lineIdx[lh] = int32(j) + 1
				continue line
			}
			if l := lrus[j]; l < minLru {
				victim, minLru = j, l
			}
		}
		// Miss: charge this level, fill into the first free way (stamp 0)
		// else the LRU way (see Access on why one argmin covers both), and
		// defer the next-level charge to the run.
		misses++
		cost += c.cfg.Latency
		if c.next == nil {
			cost += c.memLatency
		} else if runLen > 0 && runStart+runLen == i {
			runLen++
		} else {
			if runLen > 0 {
				cost += c.next.AccessRange(HPA(key+uint64(runStart)-1)<<LineShift, runLen, write)
			}
			runStart, runLen = i, 1
		}
		tags[victim] = k32
		lrus[victim] = clock
		c.lineIdx[lh] = int32(victim) + 1
		if rec != nil {
			rec[i] = int32(victim)
		}
	}
	c.clock = clock
	if runLen > 0 {
		cost += c.next.AccessRange(HPA(key+uint64(runStart)-1)<<LineShift, runLen, write)
	}
	c.Stats.Accesses += uint64(nLines - from)
	c.Stats.Hits += hits
	c.Stats.Misses += misses
	return cost
}

// Contains reports whether the line holding h is currently cached at this
// level, without touching LRU state or counters.
func (c *Cache) Contains(h HPA) bool {
	key := uint64(h)>>LineShift + 1
	base := int((key-1)&c.setMask) * c.assoc
	for _, t := range c.tags[base : base+c.assoc] {
		if t == uint32(key) {
			return true
		}
	}
	return false
}

// Flush invalidates every line (used only by tests and ablations; SkyBridge
// itself never flushes caches).
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.lrus)
}

// ResetStats zeroes the counters without touching cache contents, so an
// experiment can warm up and then measure.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// BindObs registers this cache's counters with the registry under
// "<name>.accesses" etc., where <name> is the configured cache name
// (e.g. "cpu0.L1I"). The hot path keeps incrementing the struct fields
// directly; the registry only reads and resets them.
func (c *Cache) BindObs(r *obs.Registry) {
	r.Bind(c.cfg.Name+".accesses", &c.Stats.Accesses)
	r.Bind(c.cfg.Name+".hits", &c.Stats.Hits)
	r.Bind(c.cfg.Name+".misses", &c.Stats.Misses)
}
