package core

import (
	"encoding/binary"
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
