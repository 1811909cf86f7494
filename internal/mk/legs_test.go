package mk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"sort"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/obs"
	"skybridge/internal/sim"
)

// goldenLegs is the SHA-256 of TestIPCLegsGolden's per-case records and
// Chrome trace.
const goldenLegs = "ba5ceb4b82d27852273ab84d55c0dad892c194243ecff2055e4f151aef3ff222"

// TestIPCLegsGolden pins every kernel IPC leg: each flavor, same-core and
// cross-core servers, register-sized and long payloads in either
// direction, with and without KPTI and temporary mapping, plus a
// CallTimeout that expires. Figure 7 covers only empty messages, so this
// is what pins the long-payload, KPTI and temporary-mapping paths. Each
// case records its warm round-trip cycles, the breakdown per category, the
// fast/slow path and IPI counts and the reply bytes read back; the records
// and the run's trace hash to one constant.
func TestIPCLegsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 126 kernel IPC worlds")
	}
	tr := obs.NewTracer()
	var rec bytes.Buffer
	for _, fl := range []Flavor{SeL4, Fiasco, Zircon} {
		for _, cross := range []bool{false, true} {
			for _, pl := range [][2]int{{0, 0}, {24, 24}, {200, 5000}, {5000, 24}, {24, 5000}} {
				for _, mode := range []Config{{}, {KPTI: true}, {TempMapping: true}, {KPTI: true, TempMapping: true}} {
					mode.Flavor = fl
					legCase(t, tr, &rec, mode, cross, pl[0], pl[1])
				}
			}
		}
		for _, kpti := range []bool{false, true} {
			timeoutCase(t, tr, &rec, Config{Flavor: fl, KPTI: kpti})
		}
	}
	h := sha256.New()
	h.Write(rec.Bytes())
	if err := tr.WriteChromeTrace(h); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenLegs {
		t.Errorf("kernel IPC legs moved: sha256 %s, want %s\nrecords:\n%s", got, goldenLegs, rec.String())
	}
}

// legWorld boots a traced two-process kernel with an echo endpoint whose
// server runs on core 1 when cross is set, core 0 otherwise.
func legWorld(tr *obs.Tracer, cfg Config, label string) (*sim.Engine, *Kernel, *Process, *Process, *Endpoint) {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 30}))
	eng.Mach.AttachTrace(tr, label)
	k := New(cfg, eng)
	client := k.NewProcess("client")
	server := k.NewProcess("server")
	ep := k.NewEndpoint("legs")
	client.Grant(ep)
	return eng, k, client, server, ep
}

// writeRecord appends one case's line: its label, the given fields, the
// breakdown per category in name order, and the kernel's path and IPI
// counts.
func writeRecord(w io.Writer, k *Kernel, label string, fields string) {
	fmt.Fprintf(w, "%s %s", label, fields)
	if k.BD != nil {
		cats := make([]string, 0, len(k.BD.Cats))
		for c := range k.BD.Cats {
			cats = append(cats, c)
		}
		sort.Strings(cats)
		for _, c := range cats {
			fmt.Fprintf(w, " %q=%d", c, k.BD.Cats[c])
		}
	}
	fmt.Fprintf(w, " fast=%d slow=%d ipis=%d\n", k.Fastpaths, k.Slowpaths, k.Mach.IPICount)
}

// legCase runs warm round trips of a reqLen-byte request and a repLen-byte
// reply and records them. The reply bytes depend on the request bytes and
// the round, so a payload lost in either direction shows in the readback.
func legCase(t *testing.T, tr *obs.Tracer, rec io.Writer, cfg Config, cross bool, reqLen, repLen int) {
	t.Helper()
	label := fmt.Sprintf("%s cross=%v req=%d rep=%d kpti=%v tm=%v", cfg.Flavor, cross, reqLen, repLen, cfg.KPTI, cfg.TempMapping)
	eng, k, client, server, ep := legWorld(tr, cfg, label)
	srvCore := k.Mach.Cores[0]
	if cross {
		srvCore = k.Mach.Cores[1]
	}
	srvRecv := server.Alloc(2 * hw.PageSize)
	srvReply := server.Alloc(2 * hw.PageSize)
	server.Spawn("srv", srvCore, func(env *Env) {
		k.Serve(env, ep, srvRecv, func(env *Env, req Msg) Msg {
			in := make([]byte, req.Len)
			if req.Len > 0 {
				env.Read(req.Buf, in, req.Len)
			}
			out := make([]byte, repLen)
			for i := range out {
				out[i] = byte(i) + byte(req.Regs[0])
				if len(in) > 0 {
					out[i] ^= in[i%len(in)]
				}
			}
			reply := Msg{Regs: [4]uint64{req.Regs[0] + 1}}
			if repLen > 0 {
				env.Write(srvReply, out, repLen)
				reply.Buf, reply.Len = srvReply, repLen
			}
			return reply
		})
	})
	const warm, rounds = 4, 8
	var cycles uint64
	readback := sha256.New()
	cliReq := client.Alloc(2 * hw.PageSize)
	cliReply := client.Alloc(2 * hw.PageSize)
	client.Spawn("cli", k.Mach.Cores[0], func(env *Env) {
		defer ep.Close()
		payload := make([]byte, reqLen)
		for i := range payload {
			payload[i] = byte(3*i + 1)
		}
		var start uint64
		for r := 0; r < warm+rounds; r++ {
			if r == warm {
				k.BD = NewBreakdown()
				start = env.Now()
			}
			req := Msg{Regs: [4]uint64{uint64(r)}}
			if reqLen > 0 {
				payload[0] = byte(r)
				env.Write(cliReq, payload, reqLen)
				req.Buf, req.Len = cliReq, reqLen
			}
			reply, err := env.Call(ep, req, cliReply)
			if err != nil {
				t.Errorf("%s: round %d: %v", label, r, err)
				return
			}
			if reply.Regs[0] != uint64(r)+1 || reply.Len != repLen {
				t.Errorf("%s: round %d: reply reg %d len %d", label, r, reply.Regs[0], reply.Len)
				return
			}
			got := make([]byte, repLen)
			if repLen > 0 {
				env.Read(cliReply, got, repLen)
			}
			readback.Write(got)
		}
		cycles = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	writeRecord(rec, k, label, fmt.Sprintf("cycles=%d reply=%x", cycles, readback.Sum(nil)[:8]))
}

// timeoutCase warms a cross-core echo, then makes one CallTimeout the
// server outlasts and records what the expired call charged.
func timeoutCase(t *testing.T, tr *obs.Tracer, rec io.Writer, cfg Config) {
	t.Helper()
	label := fmt.Sprintf("%s timeout kpti=%v", cfg.Flavor, cfg.KPTI)
	eng, k, client, server, ep := legWorld(tr, cfg, label)
	const slow = 99
	srvRecv := server.Alloc(hw.PageSize)
	server.Spawn("srv", k.Mach.Cores[1], func(env *Env) {
		k.Serve(env, ep, srvRecv, func(env *Env, req Msg) Msg {
			if req.Regs[0] == slow {
				env.Compute(1_000_000)
			}
			return Msg{Regs: [4]uint64{req.Regs[0] + 1}}
		})
	})
	var cycles uint64
	var callErr error
	client.Spawn("cli", k.Mach.Cores[0], func(env *Env) {
		defer ep.Close()
		for r := 0; r < 4; r++ {
			if _, err := env.Call(ep, Msg{Regs: [4]uint64{uint64(r)}}, 0); err != nil {
				t.Errorf("%s: warm call: %v", label, err)
				return
			}
		}
		k.BD = NewBreakdown()
		start := env.Now()
		_, callErr = env.CallTimeout(ep, Msg{Regs: [4]uint64{slow}}, 0, 50_000)
		cycles = env.Now() - start
	})
	if err := eng.Run(); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if !errors.Is(callErr, ErrTimeout) {
		t.Errorf("%s: got %v, want ErrTimeout", label, callErr)
	}
	writeRecord(rec, k, label, fmt.Sprintf("cycles=%d", cycles))
}
