// Package ycsb implements the Yahoo! Cloud Serving Benchmark workload
// generator used in §6.5 ("we use the YCSB workloads ... YCSB-A workload
// consists of 50% read (query) and 50% write (update) operations. We run
// the workload on a table with 10,000 records").
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one generated operation.
type OpKind int

// Operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
)

// Request-distribution names for Workload.RequestDist (go-ycsb's
// requestdistribution knob).
const (
	DistUniform  = "uniform"
	DistZipfian  = "zipfian"
	DistHotspot  = "hotspot"
	DistShifting = "shifting-hotspot"
)

// Workload describes an operation mix over a keyspace.
type Workload struct {
	Name        string
	RecordCount int
	FieldLength int
	ReadProp    float64
	UpdateProp  float64
	InsertProp  float64
	ScanProp    float64
	// Zipfian selects the standard YCSB zipfian request distribution;
	// false means uniform.
	Zipfian bool
	// MaxScanLen bounds the length of a SCAN (workload E); the generator
	// draws uniformly from [1, MaxScanLen].
	MaxScanLen int
	// RequestDist names the request distribution explicitly: "uniform",
	// "zipfian", "hotspot", or "shifting-hotspot". Empty falls back to
	// the Zipfian flag, preserving the classic workloads above.
	RequestDist string
	// HotDataFrac is the fraction of the keyspace forming the hot set
	// (go-ycsb's hotspotdatafraction); hotspot distributions only.
	HotDataFrac float64
	// HotOpFrac is the fraction of operations that target the hot set
	// (go-ycsb's hotspotopnfraction); hotspot distributions only.
	HotOpFrac float64
	// HotShiftEvery advances the hot set's start by one hot-set width
	// every HotShiftEvery key draws; shifting-hotspot only.
	HotShiftEvery int
}

// WorkloadA is the update-heavy workload the paper reports: 50% reads,
// 50% updates, zipfian key distribution.
func WorkloadA(records int) Workload {
	return Workload{
		Name:        "YCSB-A",
		RecordCount: records,
		FieldLength: 100,
		ReadProp:    0.5,
		UpdateProp:  0.5,
		Zipfian:     true,
	}
}

// WorkloadB is read-heavy: 95% reads, 5% updates.
func WorkloadB(records int) Workload {
	return Workload{
		Name:        "YCSB-B",
		RecordCount: records,
		FieldLength: 100,
		ReadProp:    0.95,
		UpdateProp:  0.05,
		Zipfian:     true,
	}
}

// WorkloadC is read-only.
func WorkloadC(records int) Workload {
	return Workload{
		Name:        "YCSB-C",
		RecordCount: records,
		FieldLength: 100,
		ReadProp:    1.0,
		Zipfian:     true,
	}
}

// WorkloadE is short-range-scan heavy: 95% scans, 5% inserts.
func WorkloadE(records int) Workload {
	return Workload{
		Name:        "YCSB-E",
		RecordCount: records,
		FieldLength: 100,
		ScanProp:    0.95,
		InsertProp:  0.05,
		Zipfian:     true,
		MaxScanLen:  100,
	}
}

// Op is one generated operation.
type Op struct {
	Kind    OpKind
	Key     int64
	Value   string
	ScanLen int // rows to read, OpScan only
}

// Generator produces a deterministic operation stream for one client.
type Generator struct {
	w       Workload
	rng     *rand.Rand
	zip     *zipfian
	seq     int64
	hotSize int64
	draws   int
}

// NewGenerator builds a generator with its own seed (one per client
// thread, so streams differ but runs are reproducible).
func NewGenerator(w Workload, seed int64) *Generator {
	g := &Generator{w: w, rng: rand.New(rand.NewSource(seed)), seq: int64(w.RecordCount)}
	if w.Zipfian || w.RequestDist == DistZipfian {
		g.zip = newZipfian(int64(w.RecordCount), 0.99, g.rng)
	}
	if w.RequestDist == DistHotspot || w.RequestDist == DistShifting {
		g.hotSize = int64(w.HotDataFrac * float64(w.RecordCount))
		if g.hotSize < 1 {
			g.hotSize = 1
		}
		if g.hotSize > int64(w.RecordCount) {
			g.hotSize = int64(w.RecordCount)
		}
	}
	return g
}

// hotStart is the current base of the hot window: fixed at 0 for
// "hotspot", advancing one window width per HotShiftEvery draws for
// "shifting-hotspot".
func (g *Generator) hotStart() int64 {
	if g.w.RequestDist != DistShifting || g.w.HotShiftEvery <= 0 {
		return 0
	}
	phase := int64(g.draws / g.w.HotShiftEvery)
	return (phase * g.hotSize) % int64(g.w.RecordCount)
}

// hotKey draws from the hot window with probability HotOpFrac, else
// uniformly from its complement (both mod RecordCount, so a shifted
// window that wraps the end of the keyspace still works).
func (g *Generator) hotKey() int64 {
	n := int64(g.w.RecordCount)
	start := g.hotStart()
	g.draws++
	if g.rng.Float64() < g.w.HotOpFrac {
		return (start + g.rng.Int63n(g.hotSize)) % n
	}
	if g.hotSize == n {
		return g.rng.Int63n(n)
	}
	return (start + g.hotSize + g.rng.Int63n(n-g.hotSize)) % n
}

// key chooses the target record.
func (g *Generator) key() int64 {
	switch g.w.RequestDist {
	case DistHotspot, DistShifting:
		return g.hotKey()
	case DistUniform:
		return g.rng.Int63n(int64(g.w.RecordCount))
	}
	if g.zip != nil {
		return g.zip.next()
	}
	return g.rng.Int63n(int64(g.w.RecordCount))
}

// value builds a FieldLength-byte payload.
func (g *Generator) value() string {
	b := make([]byte, g.w.FieldLength)
	for i := range b {
		b[i] = byte('a' + g.rng.Intn(26))
	}
	return string(b)
}

// Next produces the next operation.
func (g *Generator) Next() Op {
	p := g.rng.Float64()
	switch {
	case p < g.w.ReadProp:
		return Op{Kind: OpRead, Key: g.key()}
	case p < g.w.ReadProp+g.w.UpdateProp:
		return Op{Kind: OpUpdate, Key: g.key(), Value: g.value()}
	case p < g.w.ReadProp+g.w.UpdateProp+g.w.InsertProp:
		g.seq++
		return Op{Kind: OpInsert, Key: g.seq, Value: g.value()}
	default:
		n := 1
		if g.w.MaxScanLen > 1 {
			n = 1 + g.rng.Intn(g.w.MaxScanLen)
		}
		return Op{Kind: OpScan, Key: g.key(), ScanLen: n}
	}
}

// RecordValue is the canonical initial value for record i during loading.
func RecordValue(w Workload, i int64) string {
	b := make([]byte, w.FieldLength)
	for j := range b {
		b[j] = byte('a' + (int(i)+j)%26)
	}
	return string(b)
}

// zipfian is the Gray et al. zipfian generator YCSB uses, over [0, n).
type zipfian struct {
	n               int64
	theta           float64
	alpha, zetan    float64
	eta, zeta2theta float64
	rng             *rand.Rand
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

func newZipfian(n int64, theta float64, rng *rand.Rand) *zipfian {
	if n <= 0 {
		panic(fmt.Sprintf("ycsb: zipfian over %d items", n))
	}
	z := &zipfian{n: n, theta: theta, rng: rng}
	z.zetan = zetaStatic(n, theta)
	z.zeta2theta = zetaStatic(2, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2theta/z.zetan)
	return z
}

func (z *zipfian) next() int64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}
