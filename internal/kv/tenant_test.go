package kv

import (
	"bytes"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// putFrame builds an OpPut payload from strings.
func putFrame(key, val string) []byte { return PutFrame([]byte(key), []byte(val)) }

// TestPutFrameSplit: a put frame is the key length as a little-endian
// u16, the key, then the value; SplitPut inverts it and refuses frames
// too short for their key.
func TestPutFrameSplit(t *testing.T) {
	key := bytes.Repeat([]byte("k"), 300)
	frame := PutFrame(key, []byte("val"))
	want := append(append([]byte{44, 1}, key...), "val"...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("PutFrame = %q, want %q", frame, want)
	}
	k, v, ok := SplitPut(frame)
	if !ok || !bytes.Equal(k, key) || string(v) != "val" {
		t.Errorf("SplitPut = %q, %q, %v", k, v, ok)
	}
	for _, bad := range [][]byte{nil, {1}, {4, 0, 'a', 'b', 'c'}} {
		if _, _, ok := SplitPut(bad); ok {
			t.Errorf("SplitPut(%v) accepted a short frame", bad)
		}
	}
}

// TestTenantGuard: the guarded handler confines each tenant to its own
// key prefix — cross-tenant gets and puts come back StatusWrongTenant
// without touching the store, while malformed frames still fall through
// to the store's own StatusBadReq.
func TestTenantGuard(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 1, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("store")
	store := NewStore(p, 256, 1024)
	guarded := TenantGuard(store.Handler())
	p.Spawn("drv", k.Mach.Cores[0], func(env *mk.Env) {
		// Tenant 3 writes and reads under its own prefix.
		own := TenantKey(3, "alpha")
		if r := guarded(env, 3, svc.Req{Op: OpPut, Data: putFrame(own, "v1")}); r.Status != StatusOK {
			t.Errorf("own put status %d", r.Status)
		}
		if r := guarded(env, 3, svc.Req{Op: OpGet, Data: []byte(own)}); r.Status != StatusOK || string(r.Data) != "v1" {
			t.Errorf("own get = %d %q", r.Status, r.Data)
		}
		// Tenant 5 cannot read or overwrite tenant 3's key.
		if r := guarded(env, 5, svc.Req{Op: OpGet, Data: []byte(own)}); r.Status != StatusWrongTenant {
			t.Errorf("cross get status %d, want StatusWrongTenant", r.Status)
		}
		if r := guarded(env, 5, svc.Req{Op: OpPut, Data: putFrame(own, "evil")}); r.Status != StatusWrongTenant {
			t.Errorf("cross put status %d, want StatusWrongTenant", r.Status)
		}
		gets := store.Gets
		if r := guarded(env, 3, svc.Req{Op: OpGet, Data: []byte(own)}); r.Status != StatusOK || string(r.Data) != "v1" {
			t.Errorf("value after cross-tenant attempts = %d %q", r.Status, r.Data)
		}
		if store.Gets != gets+1 {
			t.Errorf("store.Gets advanced by %d; rejected requests reached the store", store.Gets-gets)
		}
		// An unprefixed key matches no tenant.
		if r := guarded(env, 0, svc.Req{Op: OpGet, Data: []byte("alpha")}); r.Status != StatusWrongTenant {
			t.Errorf("unprefixed get status %d, want StatusWrongTenant", r.Status)
		}
		// Malformed put frames still surface the store's StatusBadReq.
		if r := guarded(env, 3, svc.Req{Op: OpPut, Data: []byte{9}}); r.Status != StatusBadReq {
			t.Errorf("malformed put status %d, want StatusBadReq", r.Status)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
