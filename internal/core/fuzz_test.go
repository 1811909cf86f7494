package core

import (
	"encoding/binary"
	"errors"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// FuzzRingSubmission writes arbitrary bytes as the submission entry of a
// tenant-tagged frontend ring (tenant 1 of 2), bypassing Submit's checks
// the way a malicious tenant would, and drains it. The handler may run
// only for an entry whose length fits its slot, whose sequence tag is
// the one expected, and whose tenant tag is the ring's own; every other
// entry must complete as RingStatusBadEntry or RingStatusBadTenant, and
// the drain must neither fail nor panic.
func FuzzRingSubmission(f *testing.F) {
	const served = 0x600D
	f.Fuzz(func(t *testing.T, data []byte) {
		var e [entryLen]byte
		copy(e[:], data)
		// The oracle reads the raw fields itself rather than through
		// decodeEntry.
		plen := int(int32(binary.LittleEndian.Uint32(e[32:])))
		seq := binary.LittleEndian.Uint32(e[36:])
		tag := binary.LittleEndian.Uint32(e[40:])

		eng, k, _, sb := newWorld(t)
		server := k.NewProcess("server")
		fe := startFrontend(t, eng, k, sb, server, k.Mach.Cores[0], FrontendConfig{})
		procs, rings := openTenants(t, eng, k, fe, 2, 0, 64, k.Mach.Cores[0])
		const own = 1
		r := rings[own]
		valid := seq == 0 && plen >= 0 && plen <= r.SlotLen && tag == own
		ran := 0
		fe.handler = func(env *mk.Env, tenant int, req Request) Response {
			ran++
			if tenant != own || req.Len < 0 || req.Len > r.SlotLen {
				t.Errorf("handler ran for tenant %d with length %d (slot %d)", tenant, req.Len, r.SlotLen)
			}
			return Response{Regs: [4]uint64{served}}
		}

		spawnDrain(t, fe, server, k.Mach.Cores[1])
		procs[own].Spawn("atk", k.Mach.Cores[2], func(env *mk.Env) {
			defer fe.Close(env)
			if err := r.Submit(env, Request{}); err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			env.Write(r.conn.ClientBuf+hw.VA(r.sqeBase), e[:], entryLen)
			if err := r.Flush(env); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			cs, err := r.Reap(env, 1)
			if err != nil || len(cs) != 1 {
				t.Errorf("reap = %+v, %v; want one completion", cs, err)
				return
			}
			switch st := cs[0].Regs[0]; {
			case valid && st != served:
				t.Errorf("valid entry (len %d) completed with status %#x", plen, st)
			case !valid && st != RingStatusBadEntry && st != RingStatusBadTenant:
				t.Errorf("entry (len %d, seq %d, tenant %d) completed with status %#x, want a reject",
					plen, seq, tag, st)
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		want := 0
		if valid {
			want = 1
		}
		if ran != want {
			t.Errorf("handler ran %d times for entry (len %d, seq %d, tenant %d), want %d",
				ran, plen, seq, tag, want)
		}
	})
}

// FuzzRingCompletion plays a hostile server against a ring whose cursors
// start at base and which has 0 to QD submissions in flight: it writes an
// arbitrary completion tail and arbitrary completion entries through the
// server's mapping, and the client reaps without blocking. Reap must
// either return in-order completions, starting at the reap cursor, with
// lengths inside their slots and no more of them than were in flight —
// exactly the entries the tail covers when every one of them carries the
// expected sequence tag and a length within its slot — or fail with
// ErrRingCorrupt. It must never panic.
func FuzzRingCompletion(f *testing.F) {
	const qd = 4
	f.Fuzz(func(t *testing.T, base uint32, inflight uint8, tail uint32, entries []byte) {
		n := int(inflight) % (qd + 1)
		var cqes [qd * entryLen]byte
		copy(cqes[:], entries)

		eng, k, _, sb := newWorld(t)
		server := k.NewProcess("server")
		client := k.NewProcess("client")
		id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
		if _, err := sb.NewRingServer(id, mk.WakePolicy{}); err != nil {
			t.Fatal(err)
		}
		var r *AsyncRing
		client.Spawn("open", k.Mach.Cores[0], func(env *mk.Env) {
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client: %v", err)
				return
			}
			var err error
			if r, err = sb.OpenRing(env, id, qd, 64, mk.WakePolicy{}); err != nil {
				t.Errorf("open ring: %v", err)
				return
			}
			// A ring that has already completed base round trips.
			r.subSeq, r.reapSeq, r.lastCQ, r.srvSeq = base, base, base, base
			for i := 0; i < n; i++ {
				if err := r.Submit(env, Request{Regs: [4]uint64{uint64(i)}}); err != nil {
					t.Errorf("submit %d: %v", i, err)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if r == nil {
			return
		}
		server.Spawn("hostile", k.Mach.Cores[1], func(env *mk.Env) {
			env.Write(r.conn.ServerBuf+hw.VA(r.cqeBase), cqes[:], len(cqes))
			var b [8]byte
			binary.LittleEndian.PutUint32(b[:], tail)
			env.Write(r.conn.ServerBuf+ctlCQTail, b[:], 8)
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}

		// The oracle reads the raw fields itself rather than through
		// decodeEntry.
		covered := tail - base
		valid := covered <= uint32(n)
		for i := uint32(0); valid && i < covered; i++ {
			e := cqes[(base+i)%qd*entryLen:]
			plen := int(int32(binary.LittleEndian.Uint32(e[32:])))
			valid = binary.LittleEndian.Uint32(e[36:]) == base+i && plen >= 0 && plen <= r.SlotLen
		}
		client.Spawn("reap", k.Mach.Cores[0], func(env *mk.Env) {
			cs, err := r.Reap(env, 0)
			switch {
			case err != nil && !errors.Is(err, ErrRingCorrupt):
				t.Errorf("reap failed with %v, want ErrRingCorrupt", err)
			case err != nil && valid:
				t.Errorf("reap of %d valid completions (base %d, %d in flight) failed: %v", covered, base, n, err)
			case err == nil && !valid:
				t.Errorf("reap accepted tail %d over base %d with %d in flight: %d completions", tail, base, n, len(cs))
			case err == nil && uint32(len(cs)) != covered:
				t.Errorf("reap returned %d completions, want %d", len(cs), covered)
			}
			if len(cs) > n {
				t.Errorf("reap returned %d completions with %d in flight", len(cs), n)
			}
			for i, c := range cs {
				if c.Seq != base+uint32(i) || c.Len < 0 || c.Len > r.SlotLen || len(c.Data) != c.Len {
					t.Errorf("completion %d: seq %d len %d (%d bytes), want seq %d and a length within %d",
						i, c.Seq, c.Len, len(c.Data), base+uint32(i), r.SlotLen)
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
	})
}
