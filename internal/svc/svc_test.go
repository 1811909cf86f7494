package svc

import (
	"bytes"
	"testing"

	"skybridge/internal/core"
	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

// echoHandler doubles Regs[1] and reverses the payload.
func echoHandler(env *mk.Env, req Req) Resp {
	data := make([]byte, len(req.Data))
	for i, b := range req.Data {
		data[len(data)-1-i] = b
	}
	return Resp{Status: req.Op, Vals: [3]uint64{req.Args[0] * 2}, Data: data}
}

func checkEcho(t *testing.T, env *mk.Env, c Conn, payload int) {
	t.Helper()
	data := make([]byte, payload)
	for i := range data {
		data[i] = byte(i)
	}
	resp, err := c.Invoke(env, Req{Op: 7, Args: [3]uint64{21}, Data: data})
	if err != nil {
		t.Errorf("invoke: %v", err)
		return
	}
	if resp.Status != 7 || resp.Vals[0] != 42 {
		t.Errorf("scalars lost: %+v", resp)
	}
	if len(resp.Data) != payload {
		t.Errorf("payload len %d, want %d", len(resp.Data), payload)
		return
	}
	for i := range data {
		if resp.Data[len(data)-1-i] != data[i] {
			t.Error("payload not reversed correctly")
			return
		}
	}
}

func TestLocalTransport(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 28}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("p")
	p.Spawn("t", k.Mach.Cores[0], func(env *mk.Env) {
		checkEcho(t, env, NewLocal(echoHandler), 100)
		checkEcho(t, env, NewLocal(echoHandler), 0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDelayTransportAddsCycles(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 28}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	p := k.NewProcess("p")
	p.Spawn("t", k.Mach.Cores[0], func(env *mk.Env) {
		local := NewLocal(echoHandler)
		delay := NewDelay(echoHandler, 493)
		s1 := env.Now()
		local.Invoke(env, Req{})
		localCost := env.Now() - s1
		s2 := env.Now()
		delay.Invoke(env, Req{})
		delayCost := env.Now() - s2
		if delayCost != localCost+2*493 {
			t.Errorf("delay cost %d, want local %d + 986", delayCost, localCost)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestIPCTransportPayloadSizes covers the register-inline path (<=32B),
// the kernel-copy path, and multi-page payloads.
func TestIPCTransportPayloadSizes(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 28}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	srvP := k.NewProcess("srv")
	cliP := k.NewProcess("cli")
	ep := k.NewEndpoint("e")
	srvP.Spawn("s", k.Mach.Cores[0], func(env *mk.Env) { ServeIPC(env, ep, echoHandler) })
	cliP.Spawn("c", k.Mach.Cores[1], func(env *mk.Env) {
		c := NewIPC(cliP, ep)
		for _, n := range []int{0, 8, 32, 33, 100, 4096, 9000} {
			checkEcho(t, env, c, n)
		}
		ep.Close()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSkyBridgeTransport(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 4 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := hv.Boot(k, hv.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sb := core.New(k, rk)
	srvP := k.NewProcess("srv")
	cliP := k.NewProcess("cli")
	var id int
	srvP.Spawn("s", k.Mach.Cores[0], func(env *mk.Env) {
		id, err = RegisterSkyBridgeServer(sb, env, 4, echoHandler)
		if err != nil {
			t.Error(err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	cliP.Spawn("c", k.Mach.Cores[0], func(env *mk.Env) {
		c, err := NewSkyBridge(sb, env, id)
		if err != nil {
			t.Error(err)
			return
		}
		for _, n := range []int{0, 8, 100, 4096} {
			checkEcho(t, env, c, n)
		}
	})
	if err := k.Eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestIPCOversizedPayloadRejected(t *testing.T) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 28}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	cliP := k.NewProcess("cli")
	ep := k.NewEndpoint("e")
	cliP.Spawn("c", k.Mach.Cores[0], func(env *mk.Env) {
		c := NewIPC(cliP, ep)
		if _, err := c.Invoke(env, Req{Data: bytes.Repeat([]byte{1}, 64*1024)}); err == nil {
			t.Error("oversized payload accepted")
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}
