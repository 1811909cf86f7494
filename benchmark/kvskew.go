package main

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"time"

	"skybridge/internal/core"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
	"skybridge/internal/ycsb"
)

// kv-skew: an open-loop KV load under a shifting hotspot, served by one
// store process through four multi-tenant frontends under an adaptive
// core.Director. Rings, the DRR drain, migration, stealing, parking and
// engine thread handoffs do the work; no FS and no synchronous crossing
// is on the path.
const (
	kvDrains      = 4 // drain cores 0..3, one frontend each
	kvClientCores = 4 // client cores 4..7
	kvClients     = 8
	kvShards      = 2 * kvDrains
	kvRecords     = 256
	kvWindow      = 8 // per-client in-flight cap (and ring depth)
	// kvOffered is the aggregate offered load in ops per simulated
	// megacycle: about 60% of what adaptive placement sustains on this
	// key distribution at 4 drain cores, and above what static placement
	// sustains, so placement decides whether the tail stays short.
	kvOffered = 3000
	kvValLen  = len("value-000000-0000000000000000")
)

func kvKey(key int64) string { return fmt.Sprintf("user%06d", key) }

// kvValue is the value a put with global sequence number seq stores
// (seq 0 is the preloaded value).
func kvValue(key int64, seq int) string { return fmt.Sprintf("value-%06d-%016d", key, seq) }

// kvOp is one generated operation; due is when the open-loop schedule
// issued it, and its latency runs from there.
type kvOp struct {
	key int64
	put bool
	seq int
	due uint64
}

// kvClient is one routing client: a generator thread that submits on the
// seeded schedule and a receiver thread that reaps, checks, and
// resubmits wrong-epoch rejects. Both run on the client's core.
type kvClient struct {
	rt       *svc.Router
	fifos    [kvDrains][]kvOp // in-flight ops per drain slot, submission order
	inflight int
	genDone  bool
	genQ     sim.WaitQueue // generator waiting for window room
	recvQ    sim.WaitQueue // receiver waiting for a submission
}

type kvRun struct {
	w  *world
	r  *result
	tr *tracer
	// issued[seq-1] is the key of the put with sequence number seq.
	issued []int64
}

func runKVSkew(cfg runConfig, ops int) (*result, error) {
	r := newResult()
	setup := time.Now()
	w, err := newWorld(kvDrains+kvClientCores, true)
	if err != nil {
		return nil, err
	}
	run := &kvRun{w: w, r: r, tr: cfg.tr}
	shardOf := func(key int64) int { return int(key * kvShards / kvRecords) }

	// One process holds every shard and every frontend: migration and
	// stealing need the shared address space. Keys range-partition onto
	// shards, so a hot key range lands on one drain's shards.
	server := w.k.NewProcess("placed")
	perShard := kvRecords / kvShards
	stores := kv.NewStoreSet(server, kvShards, 2*perShard+64, 4+16+48)
	fes := make([]*svc.Frontend, kvDrains)
	coreFEs := make([]*core.Frontend, kvDrains)
	var d *core.Director
	var setupErr error
	server.Spawn("reg", w.core(0), func(env *mk.Env) {
		for key := int64(0); key < kvRecords; key++ {
			if err := stores[shardOf(key)].Preload(env, []byte(kvKey(key)), []byte(kvValue(key, 0))); err != nil {
				setupErr = fmt.Errorf("preload %d: %w", key, err)
				return
			}
		}
		for f := range fes {
			ph := kv.PlacedHandler(stores, func(shard int) (bool, uint64) {
				ok, epoch := d.Owns(f, shard)
				if !ok {
					d.NoteReject()
				}
				return ok, epoch
			}, func(shard int) { d.NoteOp(shard) })
			h := cfg.tr.tenantHandler(layerKV, func(env *mk.Env, _ int, req svc.Req) svc.Resp { return ph(env, req) })
			fe, err := svc.NewFrontend(w.sb, env, kvClients+1, core.FrontendConfig{}, h)
			if err != nil {
				setupErr = fmt.Errorf("frontend %d: %w", f, err)
				return
			}
			fes[f], coreFEs[f] = fe, fe.FE
		}
		d, setupErr = w.sb.NewDirector(env, core.DirectorConfig{
			Shards:        kvShards,
			ControlPeriod: 20_000,
			LowWater:      1,
			HighWater:     6,
			Acquire:       func(env *mk.Env, shard int) int { return stores[shard].MigrateWarm(env) },
			Obs:           w.k.Mach.Obs,
		}, coreFEs)
	})
	if err := w.run("kv register"); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("kv register: %w", setupErr)
	}

	clients := make([]*kvClient, kvClients)
	procs := make([]*mk.Process, kvClients)
	for ci := range clients {
		clients[ci] = &kvClient{}
		procs[ci] = w.k.NewProcess(fmt.Sprintf("cl%02d", ci))
		procs[ci].Spawn("bind", w.core(kvDrains+ci%kvClientCores), func(env *mk.Env) {
			rt, err := svc.OpenRouter(env, d, fes, kvWindow, 2+16+48)
			if err != nil && setupErr == nil {
				setupErr = fmt.Errorf("client %d bind: %w", ci, err)
			}
			clients[ci].rt = rt
		})
	}
	if err := w.run("kv bind"); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, setupErr
	}
	r.setup = []time.Duration{time.Since(setup)}
	if ops == 0 {
		return r, nil
	}

	w.k.Mach.AlignClocks()
	w.openWindow(r, cfg.tr)
	start := w.maxClock()
	var drainErr, runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	for f, fe := range fes {
		server.Spawn("drain", w.core(f), func(env *mk.Env) {
			if err := fe.Serve(env); err != nil && drainErr == nil {
				drainErr = fmt.Errorf("drain %d: %w", f, err)
			}
		})
	}
	perClient := ops / kvClients
	receiving := kvClients
	var end uint64
	// Mean inter-arrival gap per client, in cycles, for the aggregate rate.
	meanGap := float64(kvClients) * 1e6 / kvOffered
	for ci, c := range clients {
		cpu := w.core(kvDrains + ci%kvClientCores)
		procs[ci].Spawn("gen", cpu, func(env *mk.Env) {
			rng := rand.New(rand.NewSource(clientSeed(cfg.seed, ci)))
			gen := ycsb.NewGenerator(ycsb.Workload{
				Name: "kv-skew", RecordCount: kvRecords, FieldLength: 16,
				ReadProp: 0.75, UpdateProp: 0.25,
				RequestDist: ycsb.DistShifting, HotDataFrac: 0.25, HotOpFrac: 0.9,
				HotShiftEvery: (perClient + 3) / 4,
			}, rng.Int63())
			due := start
			for i := 0; i < perClient; i++ {
				due += uint64(rng.ExpFloat64() * meanGap)
				if now := env.Now(); now < due {
					env.Sleep(due - now)
				}
				for c.inflight >= kvWindow {
					c.genQ.Wait(env.T)
					env.Enter()
				}
				r.kind(kindLag).add(env.Now() - due)
				g := gen.Next()
				op := kvOp{key: g.Key, put: g.Kind == ycsb.OpUpdate, due: due}
				if op.put {
					run.issued = append(run.issued, op.key)
					op.seq = len(run.issued)
				}
				if err := run.submit(env, c, op); err != nil {
					fail(err)
					break
				}
				if c.recvQ.Len() > 0 {
					c.recvQ.WakeOne(w.eng, env.Now(), nil)
				}
			}
			c.genDone = true
			if c.recvQ.Len() > 0 {
				c.recvQ.WakeOne(w.eng, env.Now(), nil)
			}
		})
		procs[ci].Spawn("recv", cpu, func(env *mk.Env) {
			defer func() {
				end = max(end, env.Now())
				if receiving--; receiving == 0 {
					for _, fe := range fes {
						fe.Close(env)
					}
				}
			}()
			if err := run.receive(env, c); err != nil {
				fail(fmt.Errorf("client %d: %w", ci, err))
			}
		})
	}
	if err := w.run("kv measure"); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	if drainErr != nil {
		return nil, drainErr
	}
	w.closeWindow(r)
	var retries uint64
	for _, c := range clients {
		retries += c.rt.Retries
	}
	// Exactly-once handoff: every reject the drains issued came back to a
	// client as one resubmission; each one unaccounted for is a failure.
	if d.WrongEpoch != retries {
		fmt.Fprintf(os.Stderr, "benchmark: director rejected %d ops but clients retried %d\n", d.WrongEpoch, retries)
		r.failed += int(max(d.WrongEpoch, retries) - min(d.WrongEpoch, retries))
	}
	r.attempted = perClient * kvClients
	r.finish(end - start)
	r.layer["core.dir.migrations"] = float64(d.Migrations)
	r.layer["core.dir.steals"] = float64(d.Steals)
	r.layer["core.dir.scale_downs"] = float64(d.ScaleDowns)
	r.layer["core.dir.scale_ups"] = float64(d.ScaleUps)
	r.layer["core.dir.wrong_epoch"] = float64(d.WrongEpoch)
	r.layer["svc.router.retries"] = float64(retries)
	return r, nil
}

// submit routes op to its shard's current owner and rings the doorbell.
func (run *kvRun) submit(env *mk.Env, c *kvClient, op kvOp) error {
	key := kvKey(op.key)
	req := svc.Req{Op: kv.OpGet, Data: []byte(key)}
	if op.put {
		val := kvValue(op.key, op.seq)
		frame := make([]byte, 2+len(key)+len(val))
		frame[0], frame[1] = byte(len(key)), byte(len(key)>>8)
		copy(frame[2:], key)
		copy(frame[2+len(key):], val)
		req = svc.Req{Op: kv.OpPut, Data: frame}
	}
	id := run.tr.begin(env, layerSubmit)
	slot, err := c.rt.Submit(env, int(op.key*kvShards/kvRecords), tag(req, id))
	if err == nil {
		// Track the op before Flush: a doorbell crossing can let the
		// receiver run and reap it.
		c.fifos[slot] = append(c.fifos[slot], op)
		c.inflight++
		err = c.rt.Conns[slot].Flush(env)
	}
	run.tr.handOff(env, id)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	return nil
}

// receive reaps until the generator is done and nothing is in flight:
// first whatever every ring has ready, then, when none has anything, a
// blocking reap on the ring holding the oldest outstanding op.
func (run *kvRun) receive(env *mk.Env, c *kvClient) error {
	for {
		if c.inflight == 0 {
			if c.genDone {
				return nil
			}
			c.recvQ.Wait(env.T)
			env.Enter()
			continue
		}
		got := 0
		oldest := -1
		for slot := range c.fifos {
			if len(c.fifos[slot]) == 0 {
				continue
			}
			n, err := run.reap(env, c, slot, 0)
			if err != nil {
				return err
			}
			got += n
			if len(c.fifos[slot]) > 0 && (oldest < 0 || c.fifos[slot][0].due < c.fifos[oldest][0].due) {
				oldest = slot
			}
		}
		if got == 0 && oldest >= 0 {
			if _, err := run.reap(env, c, oldest, 1); err != nil {
				return err
			}
		}
	}
}

// reap collects at least minN completions from one drain slot, checks
// each, and resubmits wrong-epoch rejects. It returns how many it reaped.
func (run *kvRun) reap(env *mk.Env, c *kvClient, slot, minN int) (int, error) {
	id := run.tr.begin(env, layerReap)
	comps, err := c.rt.Conns[slot].Ring.Reap(env, minN)
	run.tr.end(env, id)
	if err != nil {
		return 0, fmt.Errorf("reap: %w", err)
	}
	for _, comp := range comps {
		op := c.fifos[slot][0]
		c.fifos[slot] = c.fifos[slot][1:]
		c.inflight--
		if comp.Regs[0] == kv.StatusWrongEpoch {
			c.rt.NoteRetry()
			if err := run.submit(env, c, op); err != nil {
				return 0, err
			}
			continue
		}
		if err := run.check(op, comp.Regs[0], comp.Data); err != nil {
			if run.r.failed < 5 {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", env.P.Name, err)
			}
			run.r.fail()
			continue
		}
		run.r.observe("", env.Now()-op.due)
	}
	if c.genQ.Len() > 0 && c.inflight < kvWindow {
		c.genQ.WakeOne(run.w.eng, env.Now(), nil)
	}
	return len(comps), nil
}

// check verifies a completion: a put succeeds; a get returns the
// requested key's value as written by the preload or by a put already
// issued for that key.
func (run *kvRun) check(op kvOp, status uint64, data []byte) error {
	if status != kv.StatusOK {
		return fmt.Errorf("key %d: status %d", op.key, status)
	}
	if op.put {
		return nil
	}
	prefix := kvValue(op.key, 0)[:kvValLen-16]
	if len(data) != kvValLen || string(data[:len(prefix)]) != prefix {
		return fmt.Errorf("get %d returned %q", op.key, data)
	}
	seq, err := strconv.Atoi(string(data[len(prefix):]))
	if err != nil || seq < 0 || seq > len(run.issued) || (seq > 0 && run.issued[seq-1] != op.key) {
		return fmt.Errorf("get %d returned %q, a put never issued for it", op.key, data)
	}
	return nil
}
