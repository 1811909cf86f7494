package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// ipc-echo: one client calls one SkyBridge echo server on a 1-core seL4
// machine under the Rootkernel, one call outstanding. The crossing
// (trampoline, VMFUNC, TLB) is nearly all the work, so this workload
// anchors the model to the paper's 396-cycle direct server call.

const opEcho = 1

// echoSizes are the payload sizes calls draw from: register-only, one
// cache line's worth, and a page-scale copy through the shared buffer.
var echoSizes = [...]int{0, 64, 1024}

// echoPool is how many distinct payloads of each size the seed generates.
const echoPool = 16

// echoWarmup calls fill the caches and TLBs before the window opens.
const echoWarmup = 4096

// echoHandler returns every argument plus one and the payload unchanged.
func echoHandler(env *mk.Env, req svc.Req) svc.Resp {
	if req.Op != opEcho {
		return svc.Resp{Status: 1}
	}
	return svc.Resp{
		Vals: [3]uint64{req.Args[0] + 1, req.Args[1] + 1, req.Args[2] + 1},
		Data: req.Data,
	}
}

// echoReply reports whether resp is the echo of args and data.
func echoReply(resp svc.Resp, args [3]uint64, data []byte) bool {
	return resp.Status == svc.StatusOK &&
		resp.Vals == [3]uint64{args[0] + 1, args[1] + 1, args[2] + 1} &&
		bytes.Equal(resp.Data, data)
}

func runEcho(cfg runConfig, ops int) (*result, error) {
	r := newResult()
	setup := time.Now()
	w, err := newWorld(1, true)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	pool := map[int][][]byte{}
	for _, size := range echoSizes[1:] {
		for i := 0; i < echoPool; i++ {
			p := make([]byte, size)
			rng.Read(p)
			pool[size] = append(pool[size], p)
		}
	}
	// draw picks the next call's arguments and payload.
	draw := func() ([3]uint64, []byte) {
		args := [3]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64()}
		size := echoSizes[rng.Intn(len(echoSizes))]
		if size == 0 {
			return args, nil
		}
		return args, pool[size][rng.Intn(echoPool)]
	}

	srv := w.k.NewProcess("echo")
	cli := w.k.NewProcess("client")
	var id int
	var setupErr error
	srv.Spawn("reg", w.core(0), func(env *mk.Env) {
		id, setupErr = svc.RegisterSkyBridgeServer(w.sb, env, 4, cfg.tr.handler(layerEcho, echoHandler))
	})
	if err := w.run("echo register"); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("echo register: %w", setupErr)
	}
	var conn svc.Conn
	cli.Spawn("bind", w.core(0), func(env *mk.Env) {
		c, err := svc.NewSkyBridge(w.sb, env, id)
		if err != nil {
			setupErr = err
			return
		}
		conn = cfg.tr.conn(layerSBCall, c)
		for i := 0; i < echoWarmup; i++ {
			args, data := draw()
			resp, err := conn.Invoke(env, svc.Req{Op: opEcho, Args: args, Data: data})
			if err != nil || !echoReply(resp, args, data) {
				setupErr = fmt.Errorf("warm-up call %d: bad reply (err %v)", i, err)
				return
			}
		}
	})
	if err := w.run("echo bind"); err != nil {
		return nil, err
	}
	if setupErr != nil {
		return nil, fmt.Errorf("echo bind: %w", setupErr)
	}
	r.setup = []time.Duration{time.Since(setup)}
	if ops == 0 {
		return r, nil
	}

	w.openWindow(r, cfg.tr)
	cli.Spawn("drive", w.core(0), func(env *mk.Env) {
		start := env.Now()
		for i := 0; i < ops; i++ {
			args, data := draw()
			t0 := env.Now()
			resp, err := conn.Invoke(env, svc.Req{Op: opEcho, Args: args, Data: data})
			lat := env.Now() - t0
			if err != nil || !echoReply(resp, args, data) {
				r.fail()
				continue
			}
			kind := ""
			if len(data) == 0 {
				kind = kindCall0
			}
			r.observe(kind, lat)
		}
		r.attempted = ops
		r.finish(env.Now() - start)
	})
	if err := w.run("echo measure"); err != nil {
		return nil, err
	}
	w.closeWindow(r)
	return r, nil
}
