package bench

import (
	"errors"
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// --- One cell harness for the multi-threaded cells ---
//
// Every multi-threaded cell (the five sweeps, Table 4's modes and the paper
// cells of Figures 9-11 and Table 5) runs the same lifecycle: build a
// world, run its setup phases to completion, open a measurement window,
// then run its serve loops and closed-loop drivers until the last driver
// closes the loops. Each step has one path here; each experiment keeps
// its topology, driver body, counters and record.

// cell is one multi-threaded measurement cell: its world, label and
// latency histogram, the closers its last driver runs, and the first
// error its simulated threads return.
type cell struct {
	*World
	s       *Session // nil for unobserved cells
	label   string
	h       *obs.Histogram
	closers []func(env *mk.Env)
	err     error
}

// newCell builds a cell's world in s, attached to s's tracer and call
// site under label, and its latency histogram label.
func (s *Session) newCell(label string, cfg WorldConfig) *cell {
	return &cell{World: s.world(label, cfg), s: s, label: label, h: s.hist(label)}
}

// spawn starts body as thread name of p on core. A body that fails
// returns its error; the cell keeps the first one.
func (c *cell) spawn(p *mk.Process, name string, core *hw.CPU, body func(env *mk.Env) error) {
	p.Spawn(name, core, func(env *mk.Env) {
		if err := body(env); err != nil && c.err == nil {
			c.err = err
		}
	})
}

// settle drives the engine until every thread has exited, then returns the
// first thread error joined with the engine's. The thread's error comes
// first: a thread that fails can leave its siblings parked (at a barrier,
// or on a server nobody closes), and the deadlock the engine then reports
// is only the symptom.
func (c *cell) settle() error {
	return errors.Join(c.err, c.Eng.Run())
}

// phase runs body(i, env) as thread name of procs[i] on core(i), for every
// i, and settles the cell.
func (c *cell) phase(procs []*mk.Process, name string, core func(i int) *hw.CPU, body func(i int, env *mk.Env) error) error {
	for i, p := range procs {
		c.spawn(p, name, core(i), func(env *mk.Env) error { return body(i, env) })
	}
	return c.settle()
}

// open opens the measurement window: it aligns the core clocks when align
// is set, zeroes the machine's counters and resets the named call sites.
func (c *cell) open(align bool, sites ...string) {
	if align {
		c.K.Mach.AlignClocks()
	}
	c.K.Mach.ResetStats()
	for _, label := range sites {
		c.s.callSite(label).Obs.Reset()
	}
}

// loop is a server loop a cell's drivers keep busy: a ring server or a
// frontend drain.
type loop interface {
	Serve(env *mk.Env) error
	Close(env *mk.Env)
}

// serve runs l as thread name of p on core until the last driver closes
// it.
func (c *cell) serve(p *mk.Process, name string, core *hw.CPU, l loop) {
	i := len(c.closers)
	c.closers = append(c.closers, l.Close)
	c.spawn(p, name, core, func(env *mk.Env) error {
		if err := l.Serve(env); err != nil {
			return fmt.Errorf("%s loop %d: %w", name, i, err)
		}
		return nil
	})
}

// drive runs one driver per process, driver i as thread "drive" of
// procs[i] on core(i): it sleeps stagger(i) cycles when stagger is set,
// then runs body(i, env). The last driver to finish, failed or not, runs
// the cell's closers, so the serve loops exit. drive settles the cell and
// returns each driver's window, from the end of its stagger to the end of
// its body.
func (c *cell) drive(procs []*mk.Process, core func(i int) *hw.CPU, stagger func(i int) uint64, body func(i int, env *mk.Env) error) ([]uint64, error) {
	windows := make([]uint64, len(procs))
	left := len(procs)
	err := c.phase(procs, "drive", core, func(i int, env *mk.Env) error {
		defer func() {
			if left--; left == 0 {
				for _, f := range c.closers {
					f(env)
				}
			}
		}()
		if stagger != nil {
			env.Sleep(stagger(i))
		}
		start := env.Now()
		if err := body(i, env); err != nil {
			return err
		}
		windows[i] = env.Now() - start
		return nil
	})
	return windows, err
}

// opShare is client i's share of total operations split over n clients;
// the first total%n clients run one more.
func opShare(total, n, i int) int {
	if i < total%n {
		return total/n + 1
	}
	return total / n
}

// find returns the first cell of a sweep result that match accepts, or nil.
func find[C any](cells []*C, match func(*C) bool) *C {
	for _, c := range cells {
		if match(c) {
			return c
		}
	}
	return nil
}

// kvShards builds the sharded KV store of the scaling and async sweeps:
// n store shards, shard i on core(i) preloading the records of w it owns
// and registering as a SkyBridge server for 2*clients connections. With
// crypto, every store shard gets a crypto shard registered from its core
// right after it (kv0, enc0, kv1, enc1, ...), and values are stored as the
// cipher's output. It settles the cell and returns the shards and their
// server IDs.
func (c *cell) kvShards(w ycsb.Workload, records, n, clients int, crypto bool, core func(i int) *hw.CPU) (stores []*kv.Store, kvIDs, encIDs []int, err error) {
	stores = kv.NewStoreShards(c.K, "kv", n, 2*records/n+128, kvSlot(w))
	var cryptos []*kv.Crypto
	if crypto {
		cryptos = kv.NewCryptoShards(c.K, "enc", n)
	}
	kvIDs, encIDs = make([]int, n), make([]int, len(cryptos))
	for i, st := range stores {
		c.spawn(st.Proc, "shard", core(i), func(env *mk.Env) error {
			for r := int64(0); r < int64(records); r++ {
				key := scalingKey(r)
				if kv.ShardOf(key, n) != i {
					continue
				}
				val := []byte(ycsb.RecordValue(w, r))
				if crypto {
					val = kv.CipherStream(val)
				}
				if err := st.Preload(env, key, val); err != nil {
					return fmt.Errorf("shard %d preload: %w", i, err)
				}
			}
			return c.register(env, st.Handler(), &kvIDs[i], clients)
		})
		if crypto {
			c.spawn(cryptos[i].Proc, "shard", core(i), func(env *mk.Env) error {
				return c.register(env, cryptos[i].Handler(), &encIDs[i], clients)
			})
		}
	}
	return stores, kvIDs, encIDs, c.settle()
}

// kvSlot is the store slot size for w's records.
func kvSlot(w ycsb.Workload) int { return 4 + 32 + 2*w.FieldLength }

// register registers h as a SkyBridge server for 2*clients connections and
// stores its ID in id.
func (c *cell) register(env *mk.Env, h svc.Handler, id *int, clients int) error {
	var err error
	if *id, err = svc.RegisterSkyBridgeServer(c.SB, env, 2*clients, h); err != nil {
		return fmt.Errorf("%s register: %w", env.P.Name, err)
	}
	return nil
}

// bindShards connects env's process to every store shard in ids over
// SkyBridge, routing each request to its key's shard.
func (c *cell) bindShards(env *mk.Env, ids []int) (*svc.Sharded, error) {
	conns := make([]svc.Conn, len(ids))
	for i, id := range ids {
		var err error
		if conns[i], err = svc.NewSkyBridge(c.SB, env, id); err != nil {
			return nil, fmt.Errorf("%s bind shard %d: %w", env.P.Name, i, err)
		}
	}
	return svc.NewSharded(conns, kv.PickReq(len(ids))), nil
}
