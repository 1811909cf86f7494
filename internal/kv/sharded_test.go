package kv

import (
	"bytes"
	"fmt"
	"testing"

	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"

	"skybridge/internal/core"
)

// TestShardOfBalances: the key hash spreads a keyspace over shards
// without starving any shard.
func TestShardOfBalances(t *testing.T) {
	const n, keys = 4, 4096
	counts := make([]int, n)
	for i := 0; i < keys; i++ {
		counts[ShardOf([]byte(fmt.Sprintf("key-%06d", i)), n)]++
	}
	for sh, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Errorf("shard %d owns %d of %d keys (counts %v)", sh, c, keys, counts)
		}
	}
	if got := ShardOf([]byte("anything"), 1); got != 0 {
		t.Errorf("ShardOf(_, 1) = %d", got)
	}
}

// TestPickReqRoutesPutAndGetAlike: a put and a get for the same key land
// on the same shard, and malformed puts route to shard 0.
func TestPickReqRoutesPutAndGetAlike(t *testing.T) {
	pick := PickReq(4)
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("key-%06d", i))
		put := svc.Req{Op: OpPut, Data: append([]byte{byte(len(key)), 0}, append(key, []byte("value")...)...)}
		get := svc.Req{Op: OpGet, Data: key}
		if pick(put) != pick(get) {
			t.Fatalf("key %q: put shard %d != get shard %d", key, pick(put), pick(get))
		}
	}
	if got := pick(svc.Req{Op: OpPut, Data: []byte{9}}); got != 0 {
		t.Errorf("malformed put routed to shard %d, want 0", got)
	}
}

// TestCipherStreamMatchesCrypto: the exported stream equals what the
// crypto service computes, and is its own inverse (so preloaded
// ciphertext decrypts correctly through the pipeline).
func TestCipherStreamMatchesCrypto(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 1, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{}, eng)
	crypto := NewCrypto(k.NewProcess("enc"))
	plain := []byte("the quick brown fox")
	var viaService []byte
	crypto.Proc.Spawn("t", k.Mach.Cores[0], func(env *mk.Env) {
		viaService = crypto.transform(env, plain)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaService, CipherStream(plain)) {
		t.Error("CipherStream disagrees with the crypto service")
	}
	if !bytes.Equal(CipherStream(CipherStream(plain)), plain) {
		t.Error("CipherStream is not its own inverse")
	}
}

// TestShardedClientPipeline runs the full sharded stack over SkyBridge:
// 2 store shards + 1 crypto shard as servers, a client inserting and
// querying batches, values round-tripping through encryption and the
// correct shard.
func TestShardedClientPipeline(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb := core.New(k, rk)

	const shards = 2
	stores := NewStoreShards(k, "kv", shards, 256, 4+2*64)
	cryptos := NewCryptoShards(k, "enc", 1)
	pl := k.Placement()
	kvIDs := make([]int, shards)
	var encID int
	for i := range stores {
		i := i
		stores[i].Proc.Spawn("reg", pl.Core(i), func(env *mk.Env) {
			id, err := svc.RegisterSkyBridgeServer(sb, env, 8, stores[i].Handler())
			if err != nil {
				t.Errorf("register shard %d: %v", i, err)
				return
			}
			kvIDs[i] = id
		})
	}
	cryptos[0].Proc.Spawn("reg", pl.Core(0), func(env *mk.Env) {
		encID, err = svc.RegisterSkyBridgeServer(sb, env, 8, cryptos[0].Handler())
		if err != nil {
			t.Errorf("register crypto: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	client := k.NewProcess("client")
	client.Spawn("cli", pl.Core(0), func(env *mk.Env) {
		enc, err := svc.NewSkyBridge(sb, env, encID)
		if err != nil {
			t.Errorf("bind crypto: %v", err)
			return
		}
		conns := make([]svc.Conn, shards)
		for i, id := range kvIDs {
			if conns[i], err = svc.NewSkyBridge(sb, env, id); err != nil {
				t.Errorf("bind shard %d: %v", i, err)
				return
			}
		}
		c := &Client{Enc: enc, KV: svc.NewSharded(conns, PickReq(shards))}
		const n = 12
		keys := make([][]byte, n)
		vals := make([][]byte, n)
		for i := range keys {
			keys[i] = []byte(fmt.Sprintf("key-%06d", i))
			vals[i] = []byte(fmt.Sprintf("value-%06d", i))
		}
		if err := c.InsertBatch(env, keys, vals); err != nil {
			t.Errorf("insert batch: %v", err)
			return
		}
		got, err := c.QueryBatch(env, append(keys, []byte("missing-key")))
		if err != nil {
			t.Errorf("query batch: %v", err)
			return
		}
		for i := range keys {
			if !bytes.Equal(got[i], vals[i]) {
				t.Errorf("key %q: got %q, want %q", keys[i], got[i], vals[i])
			}
		}
		if got[n] != nil {
			t.Errorf("missing key returned %q", got[n])
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// Both shards served puts, split by key hash, and stored ciphertext.
	var totalPuts uint64
	for i, s := range stores {
		if s.Puts == 0 {
			t.Errorf("shard %d served no puts", i)
		}
		totalPuts += s.Puts
	}
	if totalPuts != 12 {
		t.Errorf("total puts = %d, want 12", totalPuts)
	}
	if sb.BatchCalls == 0 {
		t.Error("pipeline used no batched crossings")
	}
}

// TestShardedPreloadVisibleToPipeline: records preloaded directly into a
// shard (with CipherStream-encrypted values) are readable through the
// batched query path.
func TestShardedPreloadVisibleToPipeline(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 1, MemBytes: 2 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb := core.New(k, rk)

	stores := NewStoreShards(k, "kv", 1, 128, 4+2*64)
	cryptos := NewCryptoShards(k, "enc", 1)
	var kvID, encID int
	stores[0].Proc.Spawn("load", k.Mach.Cores[0], func(env *mk.Env) {
		if err := stores[0].Preload(env, []byte("warm"), CipherStream([]byte("toasty"))); err != nil {
			t.Errorf("preload: %v", err)
		}
		id, err := svc.RegisterSkyBridgeServer(sb, env, 8, stores[0].Handler())
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		kvID = id
	})
	cryptos[0].Proc.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		encID, err = svc.RegisterSkyBridgeServer(sb, env, 8, cryptos[0].Handler())
		if err != nil {
			t.Errorf("register crypto: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	client := k.NewProcess("client")
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		enc, err := svc.NewSkyBridge(sb, env, encID)
		if err != nil {
			t.Errorf("bind crypto: %v", err)
			return
		}
		kvc, err := svc.NewSkyBridge(sb, env, kvID)
		if err != nil {
			t.Errorf("bind store: %v", err)
			return
		}
		c := &Client{Enc: enc, KV: oneStore(kvc)}
		got, err := c.QueryBatch(env, [][]byte{[]byte("warm"), []byte("cold")})
		if err != nil {
			t.Errorf("query: %v", err)
			return
		}
		if string(got[0]) != "toasty" {
			t.Errorf("preloaded value = %q, want %q", got[0], "toasty")
		}
		if got[1] != nil {
			t.Errorf("unloaded key = %q, want nil", got[1])
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
