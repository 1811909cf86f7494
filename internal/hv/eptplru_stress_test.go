package hv_test

import (
	"fmt"
	"testing"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/kv"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// TestSlotLRUShardChurn registers more sharded servers than the hardware
// EPTP list holds (hw.EPTPListSize virtual slots per client process) and
// churns calls across them, so the virtual-slot LRU must evict
// continuously while every call still lands in the right shard: each
// shard's store returns its own shard index, so a stale EPT mapping
// after an eviction would surface as a wrong answer, not just a counter
// mismatch. A hub server keeps nested calls in flight mid-churn,
// exercising pinned-slot safety (an active call chain's slots must never
// be victims).
func TestSlotLRUShardChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("slot churn stress is not a -short test")
	}
	nShards := hw.EPTPListSize + 8 // 520: a working set the list cannot hold

	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 4 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb := core.New(k, rk)
	pl := k.Placement()

	// Each shard is its own process and server; the tiny store holds one
	// record identifying the shard.
	stores := kv.NewStoreShards(k, "shard", nShards, 4, 4+2*32)
	ids := make([]int, nShards)
	var setupErr error
	for i := range stores {
		i := i
		stores[i].Proc.Spawn("reg", pl.Core(i), func(env *mk.Env) {
			if err := stores[i].Preload(env, []byte("who"), []byte(fmt.Sprintf("shard-%04d", i))); err != nil {
				if setupErr == nil {
					setupErr = fmt.Errorf("shard %d preload: %w", i, err)
				}
				return
			}
			id, err := svc.RegisterSkyBridgeServer(sb, env, 2, stores[i].Handler())
			if err != nil {
				if setupErr == nil {
					setupErr = fmt.Errorf("shard %d register: %w", i, err)
				}
				return
			}
			ids[i] = id
		})
	}
	// A hub server that fans a nested batch out to two leaf shards while
	// its own slot (and the client's return path) stay pinned.
	hub := k.NewProcess("hub")
	var hubID int
	hub.Spawn("reg", pl.Core(0), func(env *mk.Env) {
		// The hub must bind its leaves before any client binds the hub, so
		// the dependency closure reaches them.
		for _, leaf := range []int{0, 1} {
			if _, err := sb.RegisterClient(env, ids[leaf]); err != nil {
				if setupErr == nil {
					setupErr = fmt.Errorf("hub bind leaf %d: %w", leaf, err)
				}
				return
			}
		}
		hubID, err = sb.RegisterServer(env, 4, 0x400200, func(env *mk.Env, req core.Request) core.Response {
			resps, err := sb.DirectCallBatch(env, ids[0], []core.Request{
				{Regs: [4]uint64{req.Regs[0]}}, {Regs: [4]uint64{req.Regs[0] + 1}},
			})
			if err != nil || len(resps) != 2 {
				if setupErr == nil {
					setupErr = fmt.Errorf("hub nested batch: %w", err)
				}
				return core.Response{}
			}
			return core.Response{Regs: [4]uint64{req.Regs[0] * 2}}
		})
		if err != nil && setupErr == nil {
			setupErr = fmt.Errorf("register hub: %w", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if setupErr != nil {
		t.Fatal(setupErr)
	}

	client := k.NewProcess("client")
	var churnErr error
	client.Spawn("churn", pl.Core(0), func(env *mk.Env) {
		conns := make([]svc.Conn, nShards)
		for i, id := range ids {
			c, err := svc.NewSkyBridge(sb, env, id)
			if err != nil {
				churnErr = fmt.Errorf("bind shard %d: %w", i, err)
				return
			}
			conns[i] = c
		}
		if _, err := sb.RegisterClient(env, hubID); err != nil {
			churnErr = fmt.Errorf("bind hub: %w", err)
			return
		}
		// Two full sweeps: the second revisits shards the LRU has already
		// evicted, forcing reloads on a full list. Every 64th step issues a
		// hub call, so evictions happen under a pinned nested chain.
		for sweep := 0; sweep < 2; sweep++ {
			for i := 0; i < nShards; i++ {
				resp, err := conns[i].Invoke(env, svc.Req{Op: kv.OpGet, Data: []byte("who")})
				if err != nil {
					churnErr = fmt.Errorf("sweep %d shard %d: %w", sweep, i, err)
					return
				}
				if want := fmt.Sprintf("shard-%04d", i); resp.Status != kv.StatusOK || string(resp.Data) != want {
					churnErr = fmt.Errorf("sweep %d shard %d answered %q (status %d), want %q",
						sweep, i, resp.Data, resp.Status, want)
					return
				}
				if i%64 == 0 {
					resps, err := sb.DirectCallBatch(env, hubID, []core.Request{
						{Regs: [4]uint64{uint64(i)}}, {Regs: [4]uint64{uint64(i + 1)}},
					})
					if err != nil {
						churnErr = fmt.Errorf("hub call at %d: %w", i, err)
						return
					}
					if resps[0].Regs[0] != uint64(2*i) || resps[1].Regs[0] != uint64(2*(i+1)) {
						churnErr = fmt.Errorf("hub results at %d = %v", i, resps)
					}
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if churnErr != nil {
		t.Fatal(churnErr)
	}

	// The client's working set exceeds the list, so the second sweep must
	// have evicted: at least nShards loads (first touch) plus reloads.
	if rk.SlotLoads < uint64(nShards) {
		t.Errorf("SlotLoads = %d, want >= %d", rk.SlotLoads, nShards)
	}
	if rk.SlotEvictions == 0 {
		t.Error("two sweeps over an oversubscribed EPTP list evicted nothing")
	}
	// The counters are Rootkernel-global, so residency (loads minus
	// evictions) spans both caching processes: the client caps at
	// EPTPListSize-1 (slot 0 is its own view) and the hub holds its two
	// leaf bindings.
	if resident := int(rk.SlotLoads - rk.SlotEvictions); resident > (hw.EPTPListSize-1)+2 {
		t.Errorf("resident slots %d exceed the per-process hardware lists (%d+2)",
			resident, hw.EPTPListSize-1)
	}
}
