package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"skybridge/internal/hw"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// KVStats captures hardware counters and latency for one KV-pipeline run.
type KVStats struct {
	Transport Transport
	Size      int // key and value length in bytes

	AvgCycles uint64 // per operation

	// Processor-structure events during the measured window (Table 1).
	ICacheMisses uint64
	DCacheMisses uint64
	L2Misses     uint64
	L3Misses     uint64
	ITLBMisses   uint64
	DTLBMisses   uint64
}

// RunKV runs the Figure 1 pipeline in the given configuration: ops
// operations (50% insert, 50% query) with the given key/value length,
// returning per-op latency and the hardware counters of the measurement
// window. Each operation's latency feeds a histogram named
// "kv/<transport>/<size>" and the run emits one Record. The placement is
// the paper's testbed: a 4-core machine with the client (and same-core
// servers) on core 0, and the cross-core configuration pinning the two
// servers to cores 1 and 2 (the paper pins client and servers to three
// distinct cores).
func (s *Session) RunKV(tr Transport, size, ops int) *KVStats {
	label := fmt.Sprintf("kv/%s/%d", tr, size)
	w := s.world(label, WorldConfig{Flavor: mk.SeL4, Cores: 4, SkyBridge: tr == TransportSkyBridge})
	h := s.hist(label)
	k := w.K
	encCore, kvCore := k.Mach.Cores[0], k.Mach.Cores[0]
	if tr == TransportIPCCross {
		encCore, kvCore = k.Mach.Cores[1], k.Mach.Cores[2]
	}

	stats := &KVStats{Transport: tr, Size: size}
	slotSize := 4 + 2*1024 + 128
	nslots := 4096

	var encConn, kvConn func(env *mk.Env) svc.Conn
	var client *mk.Process
	var clientText hw.VA
	var closers []func()

	switch tr {
	case TransportBaseline, TransportDelay:
		// One address space, function calls (optionally padded by the
		// direct cost of an IPC). The components share one runtime copy.
		client = k.NewProcess("all")
		store := kv.NewStore(client, nslots, slotSize)
		crypto := kv.NewCrypto(client)
		shared := client.Alloc(24 << 10)
		store.UseSharedText(shared)
		crypto.UseSharedText(shared)
		clientText = shared
		mkConn := func(h svc.Handler) svc.Conn {
			if tr == TransportDelay {
				return svc.NewDelay(h, DirectIPCCost)
			}
			return svc.NewLocal(h)
		}
		encConn = func(env *mk.Env) svc.Conn { return mkConn(crypto.Handler()) }
		kvConn = func(env *mk.Env) svc.Conn { return mkConn(store.Handler()) }

	case TransportIPC, TransportIPCCross:
		client = k.NewProcess("client")
		encP := k.NewProcess("enc")
		kvP := k.NewProcess("kv")
		store := kv.NewStore(kvP, nslots, slotSize)
		crypto := kv.NewCrypto(encP)
		encEP := k.NewEndpoint("enc")
		kvEP := k.NewEndpoint("kv")
		encP.Spawn("srv", encCore, func(env *mk.Env) { svc.ServeIPC(env, encEP, crypto.Handler()) })
		kvP.Spawn("srv", kvCore, func(env *mk.Env) { svc.ServeIPC(env, kvEP, store.Handler()) })
		closers = append(closers, encEP.Close, kvEP.Close)
		encConn = func(env *mk.Env) svc.Conn { return svc.NewIPC(client, encEP) }
		kvConn = func(env *mk.Env) svc.Conn { return svc.NewIPC(client, kvEP) }

	case TransportSkyBridge:
		client = k.NewProcess("client")
		encP := k.NewProcess("enc")
		kvP := k.NewProcess("kv")
		store := kv.NewStore(kvP, nslots, slotSize)
		crypto := kv.NewCrypto(encP)
		var encID, kvID int
		encP.Spawn("reg", encCore, func(env *mk.Env) {
			encID, _ = svc.RegisterSkyBridgeServer(w.SB, env, 8, crypto.Handler())
		})
		kvP.Spawn("reg", kvCore, func(env *mk.Env) {
			kvID, _ = svc.RegisterSkyBridgeServer(w.SB, env, 8, store.Handler())
		})
		w.mustRun()
		encConn = func(env *mk.Env) svc.Conn {
			c, err := svc.NewSkyBridge(w.SB, env, encID)
			if err != nil {
				panic(err)
			}
			return c
		}
		kvConn = func(env *mk.Env) svc.Conn {
			c, err := svc.NewSkyBridge(w.SB, env, kvID)
			if err != nil {
				panic(err)
			}
			return c
		}
	}

	if clientText == 0 {
		clientText = client.Alloc(24 << 10)
	}
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		c := &kv.Client{Enc: encConn(env), KV: kvConn(env), Text: clientText, TextLen: 24 << 10}
		rng := rand.New(rand.NewSource(17))
		key := func(i int) []byte {
			b := make([]byte, size)
			copy(b, fmt.Sprintf("key-%06d", i))
			return b
		}
		val := func(i int) []byte {
			b := make([]byte, size)
			for j := range b {
				b[j] = byte('a' + (i+j)%26)
			}
			return b
		}
		// Preload half the keyspace so queries hit, then warm up.
		n := 256
		for i := 0; i < n; i++ {
			if err := c.Insert(env, key(i), val(i)); err != nil {
				panic(err)
			}
		}
		// Measurement window: reset counters machine-wide.
		k.Mach.ResetStats()
		start := env.Now()
		for i := 0; i < ops; i++ {
			t := env.Now()
			if rng.Intn(2) == 0 {
				if err := c.Insert(env, key(n+i), val(n+i)); err != nil {
					panic(err)
				}
			} else {
				if _, err := c.Query(env, key(rng.Intn(n))); err != nil {
					panic(err)
				}
			}
			h.Observe(env.Now() - t)
		}
		stats.AvgCycles = (env.Now() - start) / uint64(ops)

		// Collect pollution counters across the cores involved, through
		// the machine's metric registry.
		reg := k.Mach.Obs
		stats.ICacheMisses = reg.SumSuffix(".L1I.misses")
		stats.DCacheMisses = reg.SumSuffix(".L1D.misses")
		stats.L2Misses = reg.SumSuffix(".L2.misses")
		stats.ITLBMisses = reg.SumSuffix(".ITLB.misses")
		stats.DTLBMisses = reg.SumSuffix(".DTLB.misses")
		stats.L3Misses = reg.Value("L3.misses")
		for _, c := range closers {
			c()
		}
	})
	w.mustRun()
	s.record(Record{
		Experiment: "kv",
		Config: map[string]string{
			"transport": tr.String(),
			"size":      fmt.Sprintf("%d", size),
			"ops":       fmt.Sprintf("%d", ops),
		},
		CyclesPerOp: float64(stats.AvgCycles),
		Values: map[string]float64{
			"icache_misses": float64(stats.ICacheMisses),
			"dcache_misses": float64(stats.DCacheMisses),
			"l2_misses":     float64(stats.L2Misses),
			"l3_misses":     float64(stats.L3Misses),
			"itlb_misses":   float64(stats.ITLBMisses),
			"dtlb_misses":   float64(stats.DTLBMisses),
		},
		Latency: s.latencyOf(label),
	})
	return stats
}

// --- Table 1 ---

// Table1Result reproduces the processor-structure pollution table.
type Table1Result struct {
	Rows []*KVStats
}

// Table1 runs 512 KV operations under Baseline, Delay, and IPC and
// reports the processor-structure events.
func (s *Session) Table1() *Table1Result {
	res := &Table1Result{}
	for _, tr := range []Transport{TransportBaseline, TransportDelay, TransportIPC} {
		res.Rows = append(res.Rows, s.RunKV(tr, 64, 512))
	}
	return res
}

// Render formats the table.
func (r *Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: pollution of processor structures (misses during 512 KV ops)\n")
	fmt.Fprintf(&b, "%-10s %9s %9s %9s %9s %8s %8s\n", "Name", "i-cache", "d-cache", "L2", "L3", "i-TLB", "d-TLB")
	for _, s := range r.Rows {
		fmt.Fprintf(&b, "%-10s %9d %9d %9d %9d %8d %8d\n",
			s.Transport, s.ICacheMisses, s.DCacheMisses, s.L2Misses, s.L3Misses, s.ITLBMisses, s.DTLBMisses)
	}
	return b.String()
}

// --- Figures 2 and 8 ---

// KVSizes are the key/value lengths of Figures 2 and 8.
var KVSizes = []int{16, 64, 256, 1024}

// Figure2Result holds per-transport latency series over payload sizes.
type Figure2Result struct {
	// Figure8 includes the SkyBridge series (Figure 8 = Figure 2 + SkyBridge).
	Figure8 bool
	// Cycles[transport][sizeIndex] is the average op latency.
	Cycles map[Transport][]uint64
	Ops    int
}

// figure2Paper holds the paper's reported latencies for reference
// rendering, indexed like Cycles.
var figure2Paper = map[Transport][]uint64{
	TransportBaseline:  {2707, 3485, 5884, 14652},
	TransportDelay:     {4735, 5345, 7828, 16906},
	TransportIPC:       {7929, 8548, 11025, 20577},
	TransportIPCCross:  {18895, 19609, 22162, 32061},
	TransportSkyBridge: {3512, 4112, 6413, 15378},
}

// Figure2 measures the KV pipeline latency across payload sizes for the
// four non-SkyBridge transports (Figure 2).
func (s *Session) Figure2(ops int) *Figure2Result { return s.runFigure2(ops, false) }

// Figure8 is Figure 2 plus the SkyBridge series.
func (s *Session) Figure8(ops int) *Figure2Result { return s.runFigure2(ops, true) }

func (s *Session) runFigure2(ops int, withSB bool) *Figure2Result {
	trs := []Transport{TransportBaseline, TransportDelay, TransportIPC, TransportIPCCross}
	if withSB {
		trs = append(trs, TransportSkyBridge)
	}
	res := &Figure2Result{Figure8: withSB, Cycles: make(map[Transport][]uint64), Ops: ops}
	for _, tr := range trs {
		for _, size := range KVSizes {
			st := s.RunKV(tr, size, ops)
			res.Cycles[tr] = append(res.Cycles[tr], st.AvgCycles)
		}
	}
	return res
}

// Render formats the figure.
func (r *Figure2Result) Render() string {
	name := "Figure 2"
	if r.Figure8 {
		name = "Figure 8"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: KV store average op latency (cycles); paper values in parentheses\n", name)
	fmt.Fprintf(&b, "%-14s", "transport")
	for _, s := range KVSizes {
		fmt.Fprintf(&b, " %16s", fmt.Sprintf("%d-bytes", s))
	}
	fmt.Fprintln(&b)
	for _, tr := range []Transport{TransportBaseline, TransportDelay, TransportIPC, TransportIPCCross, TransportSkyBridge} {
		series, ok := r.Cycles[tr]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "%-14s", tr)
		for i, c := range series {
			fmt.Fprintf(&b, " %8d (%5d)", c, figure2Paper[tr][i])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}
