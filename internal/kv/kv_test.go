package kv

import (
	"bytes"
	"fmt"
	"testing"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// oneStore is a single store connection as the client's one-shard
// Sharded.
func oneStore(c svc.Conn) *svc.Sharded { return svc.NewSharded([]svc.Conn{c}, PickReq(1)) }

func pipelineCheck(t *testing.T, env *mk.Env, c *Client) {
	t.Helper()
	for i := 0; i < 16; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		val := bytes.Repeat([]byte{byte('A' + i)}, 64)
		if err := c.Insert(env, key, val); err != nil {
			t.Errorf("insert %d: %v", i, err)
			return
		}
	}
	for i := 0; i < 16; i++ {
		key := []byte(fmt.Sprintf("key-%03d", i))
		got, err := c.Query(env, key)
		if err != nil {
			t.Errorf("query %d: %v", i, err)
			return
		}
		want := bytes.Repeat([]byte{byte('A' + i)}, 64)
		if !bytes.Equal(got, want) {
			t.Errorf("key %d: value corrupted through encrypt/store/decrypt", i)
			return
		}
	}
	if _, err := c.Query(env, []byte("no-such-key")); err == nil {
		t.Error("missing key did not fail")
	}
}

func TestPipelineBaseline(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("all")
	store := NewStore(p, 1024, 2176)
	crypto := NewCrypto(p)
	p.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		c := &Client{Enc: svc.NewLocal(crypto.Handler()), KV: oneStore(svc.NewLocal(store.Handler()))}
		pipelineCheck(t, env, c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if store.Puts != 16 || crypto.Ops != 32 {
		t.Fatalf("stats: puts=%d cryptoOps=%d", store.Puts, crypto.Ops)
	}
}

func TestPipelineIPC(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 4, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	cliP := k.NewProcess("client")
	encP := k.NewProcess("enc")
	kvP := k.NewProcess("kv")

	store := NewStore(kvP, 1024, 2176)
	crypto := NewCrypto(encP)
	encEP := k.NewEndpoint("enc")
	kvEP := k.NewEndpoint("kv")
	encP.Spawn("srv", k.Mach.Cores[0], func(env *mk.Env) { svc.ServeIPC(env, encEP, crypto.Handler()) })
	kvP.Spawn("srv", k.Mach.Cores[0], func(env *mk.Env) { svc.ServeIPC(env, kvEP, store.Handler()) })

	cliP.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		c := &Client{Enc: svc.NewIPC(cliP, encEP), KV: oneStore(svc.NewIPC(cliP, kvEP))}
		pipelineCheck(t, env, c)
		encEP.Close()
		kvEP.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if k.IPCCalls == 0 {
		t.Fatal("no IPC recorded")
	}
}

// TestQueryEmptyValueIsNotMissing: over kernel IPC an empty reply
// carries no data, so a stored empty value must still read back as
// found (empty, no error) while a missing key fails.
func TestQueryEmptyValueIsNotMissing(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	cliP := k.NewProcess("client")
	encP := k.NewProcess("enc")
	kvP := k.NewProcess("kv")
	store := NewStore(kvP, 64, 256)
	crypto := NewCrypto(encP)
	encEP := k.NewEndpoint("enc")
	kvEP := k.NewEndpoint("kv")
	encP.Spawn("srv", k.Mach.Cores[1], func(env *mk.Env) { svc.ServeIPC(env, encEP, crypto.Handler()) })
	kvP.Spawn("srv", k.Mach.Cores[1], func(env *mk.Env) { svc.ServeIPC(env, kvEP, store.Handler()) })
	cliP.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer encEP.Close()
		defer kvEP.Close()
		c := &Client{Enc: svc.NewIPC(cliP, encEP), KV: oneStore(svc.NewIPC(cliP, kvEP))}
		if err := c.Insert(env, []byte("empty"), nil); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		if got, err := c.Query(env, []byte("empty")); err != nil || got == nil || len(got) != 0 {
			t.Errorf("query of an empty value = %q (nil %v), %v; want empty, found", got, got == nil, err)
		}
		if _, err := c.Query(env, []byte("absent")); err == nil {
			t.Error("missing key did not fail")
		}
		got, err := c.QueryBatch(env, [][]byte{[]byte("empty"), []byte("absent")})
		if err != nil || got[0] == nil || got[1] != nil {
			t.Errorf("batch = %q (nil %v, %v), %v; want found-empty then missing", got, got[0] == nil, got[1] == nil, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineSkyBridge(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 4, MemBytes: 4 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb := core.New(k, rk)

	cliP := k.NewProcess("client")
	encP := k.NewProcess("enc")
	kvP := k.NewProcess("kv")
	store := NewStore(kvP, 1024, 2176)
	crypto := NewCrypto(encP)

	var encID, kvID int
	encP.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		encID, err = svc.RegisterSkyBridgeServer(sb, env, 8, crypto.Handler())
		if err != nil {
			t.Errorf("register enc: %v", err)
		}
	})
	kvP.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		kvID, err = svc.RegisterSkyBridgeServer(sb, env, 8, store.Handler())
		if err != nil {
			t.Errorf("register kv: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	cliP.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		enc, err := svc.NewSkyBridge(sb, env, encID)
		if err != nil {
			t.Errorf("bind enc: %v", err)
			return
		}
		kvc, err := svc.NewSkyBridge(sb, env, kvID)
		if err != nil {
			t.Errorf("bind kv: %v", err)
			return
		}
		c := &Client{Enc: enc, KV: oneStore(kvc)}
		pipelineCheck(t, env, c)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.BatchCalls != 0 {
		t.Errorf("BatchCalls = %d, want 0: a one-key batch is one plain call", sb.BatchCalls)
	}
	if sb.DirectCalls == 0 {
		t.Fatal("no direct calls recorded")
	}
	if k.IPCCalls != 0 {
		t.Fatalf("SkyBridge pipeline still made %d kernel IPCs", k.IPCCalls)
	}
}

func TestStoreCollisionProbing(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 1, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("p")
	store := NewStore(p, 4, 256) // tiny: forces collisions
	p.Spawn("t", k.Mach.Cores[0], func(env *mk.Env) {
		for i := 0; i < 4; i++ {
			key := []byte{byte(i)}
			if st := store.put(env, key, []byte{byte(100 + i)}); st != StatusOK {
				t.Errorf("put %d: status %d", i, st)
			}
		}
		// Table full now.
		if st := store.put(env, []byte{9}, []byte{9}); st != StatusFull {
			t.Errorf("overfull put: status %d", st)
		}
		for i := 0; i < 4; i++ {
			val, st := store.get(env, []byte{byte(i)})
			if st != StatusOK || val[0] != byte(100+i) {
				t.Errorf("get %d: %v %d", i, val, st)
			}
		}
		// Overwrite existing key.
		if st := store.put(env, []byte{2}, []byte{222}); st != StatusOK {
			t.Errorf("overwrite: %d", st)
		}
		val, _ := store.get(env, []byte{2})
		if val[0] != 222 {
			t.Error("overwrite lost")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
