package core

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

// startFrontend registers a frontend server on proc (tenant-echo handler:
// doubles Regs[0], returns the authenticated tenant in Regs[1], uppercases
// the payload in place) and spawns its drain thread on pollCore.
func startFrontend(t *testing.T, eng *sim.Engine, k *mk.Kernel, sb *SkyBridge, proc *mk.Process, regCore *hw.CPU, cfg FrontendConfig) *Frontend {
	t.Helper()
	feCh := make(chan *Frontend, 1)
	proc.Spawn("reg", regCore, func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 64, 0x400100, func(env *mk.Env, req Request) Response {
			return Response{Regs: [4]uint64{RingStatusBadTenant}}
		})
		if err != nil {
			t.Errorf("register server: %v", err)
			return
		}
		fe, err := sb.NewFrontend(id, cfg, func(env *mk.Env, tenant int, req Request) Response {
			resp := Response{Regs: [4]uint64{req.Regs[0] * 2, uint64(tenant)}}
			if req.Len > 0 {
				data := make([]byte, req.Len)
				env.Read(req.SharedBuf, data, req.Len)
				for i := range data {
					if data[i] >= 'a' && data[i] <= 'z' {
						data[i] -= 32
					}
				}
				env.Write(req.SharedBuf, data, len(data))
				resp.Len = req.Len
			}
			return resp
		})
		if err != nil {
			t.Errorf("new frontend: %v", err)
			return
		}
		feCh <- fe
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return <-feCh
}

// spawnDrain starts the frontend's drain thread. Call it only for the
// engine run that ends with fe.Close — a run finishing with the drain
// still parked reads as a deadlock to the engine.
func spawnDrain(t *testing.T, fe *Frontend, proc *mk.Process, core *hw.CPU) {
	t.Helper()
	proc.Spawn("drain", core, func(env *mk.Env) {
		if err := fe.Serve(env); err != nil {
			t.Errorf("frontend serve: %v", err)
		}
	})
}

// openTenants registers nTen client processes to the frontend and opens
// their tenant rings (one engine run). Tenant i's ring ends up at
// rings[i]; the assigned IDs must equal the open order.
func openTenants(t *testing.T, eng *sim.Engine, k *mk.Kernel, fe *Frontend, nTen, qd, payloadCap int, core *hw.CPU) ([]*mk.Process, []*AsyncRing) {
	t.Helper()
	sb := fe.sb
	procs := make([]*mk.Process, nTen)
	rings := make([]*AsyncRing, nTen)
	for i := 0; i < nTen; i++ {
		procs[i] = k.NewProcess(fmt.Sprintf("tenant%02d", i))
	}
	for i := 0; i < nTen; i++ {
		i := i
		procs[i].Spawn("open", core, func(env *mk.Env) {
			if _, err := sb.RegisterClient(env, fe.sink.srv.ID); err != nil {
				t.Errorf("tenant %d register: %v", i, err)
				return
			}
			r, tenant, err := fe.OpenTenantRing(env, qd, payloadCap)
			if err != nil {
				t.Errorf("tenant %d open ring: %v", i, err)
				return
			}
			if tenant != i {
				t.Errorf("tenant %d assigned ID %d", i, tenant)
			}
			rings[i] = r
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return procs, rings
}

// TestFrontendMultiTenantEcho: several tenants submit through their own
// rings, one drain thread multiplexes them through the directory, and
// every completion carries the right tenant binding and payload. Flushes
// against an awake drain skip the doorbell.
func TestFrontendMultiTenantEcho(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
	const nTen, nOps = 4, 10
	procs, rings := openTenants(t, eng, k, fe, nTen, 0, 64, k.Mach.Cores[0])

	spawnDrain(t, fe, server, k.Mach.Cores[1])
	remaining := nTen
	for i := 0; i < nTen; i++ {
		i := i
		procs[i].Spawn("drv", k.Mach.Cores[2+i%2], func(env *mk.Env) {
			defer func() {
				remaining--
				if remaining == 0 {
					fe.Close(env)
				}
			}()
			r := rings[i]
			got := 0
			reap := func(minN int) {
				cs, err := r.Reap(env, minN)
				if err != nil {
					t.Errorf("tenant %d reap: %v", i, err)
					return
				}
				for _, c := range cs {
					if c.Regs[0] != uint64(100+i)*2 || c.Regs[1] != uint64(i) {
						t.Errorf("tenant %d completion regs %v", i, c.Regs)
					}
					want := fmt.Sprintf("T%02d-OP", i)
					if string(c.Data) != want {
						t.Errorf("tenant %d payload %q, want %q", i, c.Data, want)
					}
					got++
				}
			}
			for op := 0; op < nOps; op++ {
				payload := []byte(fmt.Sprintf("t%02d-op", i))
				env.Write(r.SlotVA(), payload, len(payload))
				err := r.Submit(env, Request{
					Regs: [4]uint64{uint64(100 + i)},
					Buf:  r.SlotVA(), Len: len(payload),
				})
				if err != nil {
					t.Errorf("tenant %d submit: %v", i, err)
					return
				}
				if err := r.Flush(env); err != nil {
					t.Errorf("tenant %d flush: %v", i, err)
					return
				}
				minN := 0
				if r.Inflight() == r.QD {
					minN = 1
				}
				reap(minN)
			}
			for r.Inflight() > 0 {
				if err := r.Flush(env); err != nil {
					t.Errorf("tenant %d final flush: %v", i, err)
					return
				}
				reap(r.Inflight())
			}
			if got != nOps {
				t.Errorf("tenant %d reaped %d, want %d", i, got, nOps)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fe.sink.Served != nTen*nOps || fe.sink.Bad != 0 {
		t.Errorf("Served/Bad = %d/%d, want %d/0", fe.sink.Served, fe.sink.Bad, nTen*nOps)
	}
	if fe.Sweeps == 0 {
		t.Error("no sweeps recorded")
	}
	skipped := uint64(0)
	for _, r := range rings {
		skipped += r.DoorbellsSkipped
	}
	if skipped == 0 {
		t.Error("no doorbells skipped: drain never looked awake to a flush")
	}
}

// TestFrontendForgedTenantRejected: a tenant rewriting its submission
// entry's tenant tag to another tenant's ID gets RingStatusBadTenant —
// the handler never runs under the forged identity and the victim's ring
// memory is untouched.
func TestFrontendForgedTenantRejected(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, eng, k, fe, 2, 0, 64, k.Mach.Cores[0])
	victim, attacker := 0, 1

	spawnDrain(t, fe, server, k.Mach.Cores[1])
	// The victim stages a sentinel in its first payload slot (no submit:
	// nothing should ever serve or overwrite it).
	sentinel := []byte("victim-slot-data")
	procs[victim].Spawn("stage", k.Mach.Cores[2], func(env *mk.Env) {
		env.Write(rings[victim].SlotVA(), sentinel, len(sentinel))
	})
	procs[attacker].Spawn("atk", k.Mach.Cores[3], func(env *mk.Env) {
		defer fe.Close(env)
		r := rings[attacker]
		if err := r.Submit(env, Request{Regs: [4]uint64{7}}); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		// Rewrite the published entry, claiming the victim's tenant ID.
		env.Write(r.conn.ClientBuf+hw.VA(r.sqeBase),
			entryBytes([4]uint64{7}, 0, 0, uint32(victim)), entryLen)
		if err := r.Flush(env); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		cs, err := r.Reap(env, 1)
		if err != nil {
			t.Errorf("reap: %v", err)
			return
		}
		if len(cs) != 1 || cs[0].Regs[0] != RingStatusBadTenant {
			t.Errorf("completion = %+v, want RingStatusBadTenant", cs)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fe.sink.Bad != 1 {
		t.Errorf("Bad = %d, want 1", fe.sink.Bad)
	}
	if fe.sink.srv.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", fe.sink.srv.Rejected)
	}
	// The victim's ring never advanced and its staged slot is intact.
	server.Spawn("check", k.Mach.Cores[0], func(env *mk.Env) {
		rv := rings[victim]
		if got := readU64(env, rv.conn.ServerBuf, ctlCQTail); got != 0 {
			t.Errorf("victim cqTail = %d, want 0", got)
		}
		buf := make([]byte, len(sentinel))
		env.Read(rv.conn.ServerBuf+hw.VA(rv.payBase), buf, len(buf))
		if string(buf) != string(sentinel) {
			t.Errorf("victim slot = %q, want %q", buf, sentinel)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestFrontendWrongKeyDoorbell: presenting another tenant's calling key
// on a doorbell crossing is rejected at the server trampoline (ErrBadKey)
// exactly like the synchronous paths — per-tenant keys stay per-tenant.
func TestFrontendWrongKeyDoorbell(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, eng, k, fe, 2, 0, 64, k.Mach.Cores[0])

	spawnDrain(t, fe, server, k.Mach.Cores[1])
	stolen := rings[0].conn.ServerKey // tenant 0's calling key
	rejBefore := fe.sink.srv.Rejected
	procs[1].Spawn("atk", k.Mach.Cores[2], func(env *mk.Env) {
		defer fe.Close(env)
		r := rings[1]
		if err := r.Submit(env, Request{Regs: [4]uint64{7}}); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		// Present the stolen key on the crossing, then restore our own.
		own := r.conn.ServerKey
		r.conn.ServerKey = stolen
		err := r.Doorbell(env)
		r.conn.ServerKey = own
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("doorbell with stolen key = %v, want ErrBadKey", err)
		}
		// The legitimate key still works and the submission completes.
		if err := r.Flush(env); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		if _, err := r.Reap(env, 1); err != nil {
			t.Errorf("reap: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fe.sink.srv.Rejected - rejBefore; got != 1 {
		t.Errorf("Rejected delta = %d, want 1", got)
	}
}

// TestFrontendMaliciousTailClamped: a tenant publishing a submission tail
// far beyond its ring window is clamped to the window — the drain serves
// garbage completions back to the attacker (mostly RingStatusBadEntry)
// but never indexes outside the ring, never dies, and keeps serving a
// well-behaved tenant correctly.
func TestFrontendMaliciousTailClamped(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
	procs, rings := openTenants(t, eng, k, fe, 2, 0, 64, k.Mach.Cores[0])
	const forged = 200

	spawnDrain(t, fe, server, k.Mach.Cores[1])
	remaining := 2
	done := func(env *mk.Env) {
		remaining--
		if remaining == 0 {
			fe.Close(env)
		}
	}
	procs[0].Spawn("atk", k.Mach.Cores[2], func(env *mk.Env) {
		defer done(env)
		r := rings[0]
		// No real submission: just a forged tail, out-of-range by far.
		writeU64(env, r.conn.ClientBuf, ctlSQTail, forged)
		if err := r.Doorbell(env); err != nil {
			t.Errorf("doorbell: %v", err)
		}
	})
	procs[1].Spawn("good", k.Mach.Cores[3], func(env *mk.Env) {
		defer done(env)
		r := rings[1]
		for op := 0; op < 20; op++ {
			if err := r.Submit(env, Request{Regs: [4]uint64{uint64(op)}}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			if err := r.Flush(env); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			cs, err := r.Reap(env, 1)
			if err != nil {
				t.Errorf("reap: %v", err)
				return
			}
			for _, c := range cs {
				if c.Regs[0] != uint64(op)*2 || c.Regs[1] != 1 {
					t.Errorf("good tenant completion %v for op %d", c.Regs, op)
				}
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// The drain chewed through the forged window (clamped to QD per
	// visit) without dying; everything it "served" the attacker was
	// rejected except entries that happen to validate as all-zero.
	if rings[0].srvSeq != forged {
		t.Errorf("attacker drain cursor = %d, want %d (clamped progress)", rings[0].srvSeq, forged)
	}
	if fe.sink.Bad == 0 {
		t.Error("no rejected submissions recorded for the forged window")
	}
}

// TestFrontendMaliciousBitClear: a tenant clearing another tenant's
// directory bit (the bitmap is writable, untrusted hint state) delays the
// victim at most briefly — the pre-park tail rescan repairs the bit and
// the victim's blocking reap still completes.
func TestFrontendMaliciousBitClear(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	// No drain thread yet: stage the race first, then start it.
	feCh := make(chan *Frontend, 1)
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 8, 0x400100, func(env *mk.Env, req Request) Response {
			return Response{Regs: [4]uint64{RingStatusBadTenant}}
		})
		if err != nil {
			t.Errorf("register server: %v", err)
			return
		}
		fe, err := sb.NewFrontend(id, FrontendConfig{}, func(env *mk.Env, tenant int, req Request) Response {
			return Response{Regs: [4]uint64{req.Regs[0] + 1, uint64(tenant)}}
		})
		if err != nil {
			t.Errorf("new frontend: %v", err)
			return
		}
		feCh <- fe
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fe := <-feCh
	procs, rings := openTenants(t, eng, k, fe, 2, 0, 64, k.Mach.Cores[0])

	// Victim submits and flushes (sets its bit); attacker clears the
	// victim's bit through its own writable directory mapping.
	procs[0].Spawn("victim-submit", k.Mach.Cores[2], func(env *mk.Env) {
		r := rings[0]
		if err := r.Submit(env, Request{Regs: [4]uint64{41}}); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		if err := r.Flush(env); err != nil {
			t.Errorf("flush: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	procs[1].Spawn("atk", k.Mach.Cores[3], func(env *mk.Env) {
		r := rings[1]
		w := readU64(env, r.dirVA, dirOffBitmap)
		writeU64(env, r.dirVA, dirOffBitmap, w&^uint64(1)) // clear tenant 0's bit
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	server.Spawn("drain", k.Mach.Cores[1], func(env *mk.Env) {
		if err := fe.Serve(env); err != nil {
			t.Errorf("frontend serve: %v", err)
		}
	})
	procs[0].Spawn("victim-reap", k.Mach.Cores[2], func(env *mk.Env) {
		defer fe.Close(env)
		cs, err := rings[0].Reap(env, 1)
		if err != nil {
			t.Errorf("reap: %v", err)
			return
		}
		if len(cs) != 1 || cs[0].Regs[0] != 42 {
			t.Errorf("completion = %+v, want Regs[0]=42", cs)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if fe.sink.Served != 1 {
		t.Errorf("Served = %d, want 1", fe.sink.Served)
	}
}

// TestFrontendOpenErrors: ring depth above the tenant credit is refused,
// and an unregistered process cannot open a tenant ring.
func TestFrontendOpenErrors(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
	stranger := k.NewProcess("stranger")
	stranger.Spawn("open", k.Mach.Cores[2], func(env *mk.Env) {
		defer fe.Close(env)
		if _, _, err := fe.OpenTenantRing(env, 0, 64); !errors.Is(err, ErrNotRegistered) {
			t.Errorf("unregistered open = %v, want ErrNotRegistered", err)
		}
		if _, err := sb.RegisterClient(env, fe.sink.srv.ID); err != nil {
			t.Errorf("register: %v", err)
			return
		}
		if _, _, err := fe.OpenTenantRing(env, 16, 64); err == nil {
			t.Error("open with qd 16 > credit 8 succeeded")
		}
		if _, _, err := fe.OpenTenantRing(env, 0, 64); err != nil {
			t.Errorf("open: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// fairnessColdP99 runs 16 tenants against one frontend drain and returns
// the p99 of the cold tenants' end-to-end latencies. With hot=true,
// tenant 0 runs closed-loop at full credit (a zipfian-style hog); the
// other 15 submit one request per think-time gap. With hot=false, all 16
// run the paced loop — the uniform baseline.
func fairnessColdP99(t *testing.T, hot bool) float64 {
	t.Helper()
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	feCh := make(chan *Frontend, 1)
	server.Spawn("reg", k.Mach.Cores[0], func(env *mk.Env) {
		id, err := sb.RegisterServer(env, 16, 0x400100, func(env *mk.Env, req Request) Response {
			return Response{Regs: [4]uint64{RingStatusBadTenant}}
		})
		if err != nil {
			t.Errorf("register server: %v", err)
			return
		}
		fe, err := sb.NewFrontend(id, FrontendConfig{}, func(env *mk.Env, tenant int, req Request) Response {
			env.Compute(2000) // fixed service cost
			return Response{Regs: [4]uint64{req.Regs[0], uint64(tenant)}}
		})
		if err != nil {
			t.Errorf("new frontend: %v", err)
			return
		}
		feCh <- fe
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	fe := <-feCh
	const nTen, coldOps = 16, 30
	procs, rings := openTenants(t, eng, k, fe, nTen, 0, 0, k.Mach.Cores[0])

	spawnDrain(t, fe, server, k.Mach.Cores[1])
	var lat []uint64
	coldLeft := nTen - 1
	if !hot {
		coldLeft = nTen
	}
	hotDone := !hot
	maybeClose := func(env *mk.Env) {
		if coldLeft == 0 && hotDone {
			fe.Close(env)
		}
	}
	for i := 0; i < nTen; i++ {
		i := i
		core := k.Mach.Cores[2+i%2]
		if hot && i == 0 {
			procs[i].Spawn("hot", core, func(env *mk.Env) {
				defer func() { hotDone = true; maybeClose(env) }()
				r := rings[i]
				for coldLeft > 0 || r.Inflight() > 0 {
					for coldLeft > 0 && r.Inflight() < r.QD {
						if err := r.Submit(env, Request{Regs: [4]uint64{1}}); err != nil {
							t.Errorf("hot submit: %v", err)
							return
						}
					}
					if err := r.Flush(env); err != nil {
						t.Errorf("hot flush: %v", err)
						return
					}
					if _, err := r.Reap(env, 1); err != nil {
						t.Errorf("hot reap: %v", err)
						return
					}
				}
			})
			continue
		}
		procs[i].Spawn("cold", core, func(env *mk.Env) {
			defer func() { coldLeft--; maybeClose(env) }()
			r := rings[i]
			// Deterministic per-tenant stagger, then a fixed think gap.
			env.Sleep(uint64(i) * 2777)
			for op := 0; op < coldOps; op++ {
				env.Sleep(40_000)
				t0 := env.Now()
				if err := r.Submit(env, Request{Regs: [4]uint64{uint64(op)}}); err != nil {
					t.Errorf("cold %d submit: %v", i, err)
					return
				}
				if err := r.Flush(env); err != nil {
					t.Errorf("cold %d flush: %v", i, err)
					return
				}
				if _, err := r.Reap(env, 1); err != nil {
					t.Errorf("cold %d reap: %v", i, err)
					return
				}
				lat = append(lat, env.Now()-t0)
			}
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if want := (nTen - 1) * coldOps; len(lat) < want {
		t.Fatalf("collected %d cold latencies, want >= %d", len(lat), want)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	return float64(lat[len(lat)*99/100])
}

// TestFrontendDRRFairness: with one hot tenant running closed-loop at
// full credit against 15 paced cold tenants, deficit-round-robin drain
// keeps the cold tenants' p99 latency within a constant factor of the
// all-uniform baseline — the hog cannot starve the cold class.
func TestFrontendDRRFairness(t *testing.T) {
	uniform := fairnessColdP99(t, false)
	skewed := fairnessColdP99(t, true)
	t.Logf("cold p99: uniform %.0f cycles, hot-tenant %.0f cycles (ratio %.2f)",
		uniform, skewed, skewed/uniform)
	const factor = 8.0
	if skewed > uniform*factor {
		t.Errorf("cold p99 under skew = %.0f, more than %.0fx the uniform %.0f",
			skewed, factor, uniform)
	}
}
