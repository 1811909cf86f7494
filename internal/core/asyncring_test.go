package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// startRingServer attaches a poll loop to a registered server and spawns
// its Serve thread on core. Returns the RingServer; Serve errors fail the
// test.
func startRingServer(t *testing.T, sb *SkyBridge, id int, proc *mk.Process, core *hw.CPU, pol mk.WakePolicy) *RingServer {
	t.Helper()
	rs, err := sb.NewRingServer(id, pol)
	if err != nil {
		t.Fatalf("ring server: %v", err)
	}
	proc.Spawn("poll", core, func(env *mk.Env) {
		if err := rs.Serve(env); err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return rs
}

// entryBytes encodes one ring entry for tests that write entries by hand.
func entryBytes(regs [4]uint64, plen int, seq, tenant uint32) []byte {
	var e [entryLen]byte
	return encodeEntry(&e, regs, plen, seq, tenant)
}

// TestAsyncRingEcho: submissions flow through the ring to the echo
// handler and completions carry the doubled registers and uppercased
// payloads back, without any per-request crossing.
func TestAsyncRingEcho(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer rs.Close(env)
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		r, err := sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		const n = 20
		got := 0
		for i := 0; i < n; i++ {
			payload := []byte(fmt.Sprintf("ring-req-%02d", i))
			env.Write(r.SlotVA(), payload, len(payload))
			err := r.Submit(env, Request{
				Regs: [4]uint64{uint64(100 + i)},
				Buf:  r.SlotVA(), Len: len(payload),
			})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			if err := r.Flush(env); err != nil {
				t.Errorf("flush %d: %v", i, err)
				return
			}
			// Opportunistic reap, or a blocking one when the ring is full.
			minN := 0
			if r.Inflight() == 8 {
				minN = 1
			}
			cs, err := r.Reap(env, minN)
			if err != nil {
				t.Errorf("reap: %v", err)
				return
			}
			got += checkEchoCompletions(t, cs, got)
		}
		for r.Inflight() > 0 {
			if err := r.Flush(env); err != nil {
				t.Errorf("final flush: %v", err)
				return
			}
			cs, err := r.Reap(env, r.Inflight())
			if err != nil {
				t.Errorf("final reap: %v", err)
				return
			}
			got += checkEchoCompletions(t, cs, got)
		}
		if got != n {
			t.Errorf("reaped %d completions, want %d", got, n)
		}
		if r.Submitted != n || r.Reaped != n {
			t.Errorf("Submitted/Reaped = %d/%d, want %d/%d", r.Submitted, r.Reaped, n, n)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.RingOps != 20 {
		t.Errorf("RingOps = %d, want 20", sb.RingOps)
	}
	if sb.DirectCalls != 0 {
		t.Errorf("DirectCalls = %d, want 0 (no per-request crossing)", sb.DirectCalls)
	}
	if rs.Served != 20 || rs.Bad != 0 {
		t.Errorf("Served/Bad = %d/%d, want 20/0", rs.Served, rs.Bad)
	}
}

// checkEchoCompletions validates a reaped slice against the echo
// handler's contract, given how many completions came before.
func checkEchoCompletions(t *testing.T, cs []Completion, base int) int {
	t.Helper()
	for j, c := range cs {
		i := base + j
		if c.Seq != uint32(i) {
			t.Errorf("completion %d: seq %d", i, c.Seq)
		}
		if c.Regs[0] != uint64(2*(100+i)) {
			t.Errorf("completion %d: Regs[0] = %d, want %d", i, c.Regs[0], 2*(100+i))
		}
		want := bytes.ToUpper([]byte(fmt.Sprintf("ring-req-%02d", i)))
		if !bytes.Equal(c.Data, want) {
			t.Errorf("completion %d: payload %q, want %q", i, c.Data, want)
		}
	}
	return len(cs)
}

// TestAsyncRingWraparound: a depth-4 ring driven to full depth for many
// windows keeps sequence numbers, slots, and payloads straight across
// index wraparound (uint32 cursors, slot = seq % QD).
func TestAsyncRingWraparound(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer rs.Close(env)
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		const qd = 4
		r, err := sb.OpenRing(env, id, qd, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		next := 0
		for window := 0; window < 6; window++ {
			// Fill the ring completely...
			for r.Inflight() < qd {
				payload := []byte(fmt.Sprintf("wrap-%03d", next))
				env.Write(r.SlotVA(), payload, len(payload))
				if err := r.Submit(env, Request{
					Regs: [4]uint64{uint64(next)},
					Buf:  r.SlotVA(), Len: len(payload),
				}); err != nil {
					t.Errorf("submit %d: %v", next, err)
					return
				}
				next++
			}
			// ...verify the ring reports full...
			if err := r.Submit(env, Request{}); !errors.Is(err, ErrRingFull) {
				t.Errorf("submit past full = %v, want ErrRingFull", err)
				return
			}
			// ...and drain it all.
			if err := r.Flush(env); err != nil {
				t.Errorf("flush: %v", err)
				return
			}
			cs, err := r.Reap(env, qd)
			if err != nil {
				t.Errorf("reap: %v", err)
				return
			}
			if len(cs) != qd {
				t.Errorf("window %d: reaped %d, want %d", window, len(cs), qd)
				return
			}
			for _, c := range cs {
				i := int(c.Seq)
				if c.Regs[0] != uint64(2*i) {
					t.Errorf("seq %d: Regs[0] = %d, want %d", i, c.Regs[0], 2*i)
				}
				want := bytes.ToUpper([]byte(fmt.Sprintf("wrap-%03d", i)))
				if !bytes.Equal(c.Data, want) {
					t.Errorf("seq %d: payload %q, want %q", i, c.Data, want)
				}
			}
		}
		if r.Inflight() != 0 {
			t.Errorf("inflight %d after drain", r.Inflight())
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if sb.RingOps != 24 {
		t.Errorf("RingOps = %d, want 24", sb.RingOps)
	}
}

// TestAsyncRingCompletionBeforeSubmission: a malicious server advancing
// the completion tail past what the client ever submitted is caught by
// the client's cursor validation, not believed.
func TestAsyncRingCompletionBeforeSubmission(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	if _, err := sb.NewRingServer(id, mk.WakePolicy{}); err != nil {
		t.Fatal(err)
	}
	// No Serve thread: the "server" here is the attacker, scribbling on
	// the ring control words directly.
	var conn *Connection
	var ring *AsyncRing
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		c, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		conn = c
		ring, err = sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	server.Spawn("evil", k.Mach.Cores[1], func(env *mk.Env) {
		// Claim 5 completions; the client submitted nothing.
		writeCtl(env, conn.ServerBuf, ctlCQTail, 5)
	})
	client.Spawn("cli2", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := ring.Reap(env, 0); !errors.Is(err, ErrRingCorrupt) {
			t.Errorf("reap = %v, want ErrRingCorrupt", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	// A regressing tail is equally corrupt — but regression is only
	// detectable against a *validated* observation, so first complete one
	// request legitimately (hand-written valid completion), then yank the
	// tail backwards below what the client already saw.
	client.Spawn("cli3", k.Mach.Cores[0], func(env *mk.Env) {
		if err := ring.Submit(env, Request{Regs: [4]uint64{1}}); err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	server.Spawn("evil2", k.Mach.Cores[1], func(env *mk.Env) {
		env.Write(conn.ServerBuf+hw.VA(ring.cqeBase), entryBytes([4]uint64{2}, 0, 0, 0), entryLen)
		writeCtl(env, conn.ServerBuf, ctlCQTail, 1)
	})
	client.Spawn("cli4", k.Mach.Cores[0], func(env *mk.Env) {
		if cs, err := ring.Reap(env, 1); err != nil || len(cs) != 1 {
			t.Errorf("legitimate reap = %v, %v", cs, err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	server.Spawn("evil3", k.Mach.Cores[1], func(env *mk.Env) {
		writeCtl(env, conn.ServerBuf, ctlCQTail, 0)
	})
	client.Spawn("cli5", k.Mach.Cores[0], func(env *mk.Env) {
		if _, err := ring.Reap(env, 0); !errors.Is(err, ErrRingCorrupt) {
			t.Errorf("reap after regression = %v, want ErrRingCorrupt", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestAsyncRingMaliciousCompletionEntries: out-of-bounds completion
// entries — a wrong sequence tag (pointing the client at another slot)
// or an oversized length — are rejected by the client before any payload
// memory is touched.
func TestAsyncRingMaliciousCompletionEntries(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(env *mk.Env, conn *Connection, r *AsyncRing)
	}{
		{"bad-seq", func(env *mk.Env, conn *Connection, r *AsyncRing) {
			// Completion 0 claims to be completion 7: accepting it would
			// make the client read slot 7 % QD instead of its own.
			env.Write(conn.ServerBuf+hw.VA(r.cqeBase), entryBytes([4]uint64{1}, 4, 7, 0), entryLen)
			writeCtl(env, conn.ServerBuf, ctlCQTail, 1)
		}},
		{"bad-len", func(env *mk.Env, conn *Connection, r *AsyncRing) {
			// Length far beyond the slot: accepting it would read past the
			// slot (and, for big values, past the shared buffer).
			env.Write(conn.ServerBuf+hw.VA(r.cqeBase), entryBytes([4]uint64{1}, r.SlotLen+1, 0, 0), entryLen)
			writeCtl(env, conn.ServerBuf, ctlCQTail, 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, k, _, sb := newWorld(t)
			server := k.NewProcess("server")
			client := k.NewProcess("client")
			id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
			if _, err := sb.NewRingServer(id, mk.WakePolicy{}); err != nil {
				t.Fatal(err)
			}
			var conn *Connection
			var ring *AsyncRing
			client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
				c, err := sb.RegisterClient(env, id)
				if err != nil {
					t.Errorf("register client: %v", err)
					return
				}
				conn = c
				ring, err = sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
				if err != nil {
					t.Errorf("open ring: %v", err)
					return
				}
				// One real submission, so the tail the attacker writes is
				// within the submitted window and only the entry is bad.
				if err := ring.Submit(env, Request{Regs: [4]uint64{9}}); err != nil {
					t.Errorf("submit: %v", err)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			server.Spawn("evil", k.Mach.Cores[1], func(env *mk.Env) {
				tc.corrupt(env, conn, ring)
			})
			client.Spawn("cli2", k.Mach.Cores[0], func(env *mk.Env) {
				if _, err := ring.Reap(env, 0); !errors.Is(err, ErrRingCorrupt) {
					t.Errorf("reap = %v, want ErrRingCorrupt", err)
				}
			})
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAsyncRingMaliciousSubmissionRejected: a client rewriting a
// submission entry after publishing it (oversized length) gets a
// RingStatusBadEntry completion, counted against the server's Rejected
// stat — the server neither dispatches it nor dies.
func TestAsyncRingMaliciousSubmissionRejected(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})
	srv, _ := sb.Server(id)

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer rs.Close(env)
		if _, err := sb.RegisterClient(env, id); err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		r, err := sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		// Legitimate submit, then overwrite the published entry with an
		// out-of-slot length before the server drains it.
		if err := r.Submit(env, Request{Regs: [4]uint64{7}}); err != nil {
			t.Errorf("submit: %v", err)
			return
		}
		env.Write(r.conn.ClientBuf+hw.VA(r.sqeBase),
			entryBytes([4]uint64{7}, r.conn.BufLen, 0, 0), entryLen)
		if err := r.Flush(env); err != nil {
			t.Errorf("flush: %v", err)
			return
		}
		cs, err := r.Reap(env, 1)
		if err != nil {
			t.Errorf("reap: %v", err)
			return
		}
		if len(cs) != 1 || cs[0].Regs[0] != RingStatusBadEntry {
			t.Errorf("completions = %+v, want one RingStatusBadEntry", cs)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Rejected != 1 || rs.Bad != 1 {
		t.Errorf("Rejected/Bad = %d/%d, want 1/1", srv.Rejected, rs.Bad)
	}
	if srv.Calls != 0 {
		t.Errorf("Calls = %d, want 0 (bad entry must not dispatch)", srv.Calls)
	}
}

// TestAsyncRingDoorbellBadKey: every doorbell crossing presents the
// connection's calling key, and a wrong key bounces off the server-side
// trampoline exactly like a bad DirectCall key.
func TestAsyncRingDoorbellBadKey(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	rs := startRingServer(t, sb, id, server, k.Mach.Cores[1], mk.WakePolicy{})
	srv, _ := sb.Server(id)

	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		defer rs.Close(env)
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		r, err := sb.OpenRing(env, id, 8, 64, mk.WakePolicy{})
		if err != nil {
			t.Errorf("open ring: %v", err)
			return
		}
		// Forge the key the trampoline presents, then restore it.
		key := conn.ServerKey
		conn.ServerKey = key + 1
		err = r.Doorbell(env)
		conn.ServerKey = key
		if !errors.Is(err, ErrBadKey) {
			t.Errorf("forged doorbell = %v, want ErrBadKey", err)
			return
		}
		// The real key still works afterwards.
		if err := r.Doorbell(env); err != nil {
			t.Errorf("genuine doorbell: %v", err)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if srv.Rejected != 1 {
		t.Errorf("Rejected = %d, want 1", srv.Rejected)
	}
	if sb.RingDoorbells != 1 {
		t.Errorf("RingDoorbells = %d, want 1 (the genuine one)", sb.RingDoorbells)
	}
}

// TestAsyncRingWakeupKinds pins the adaptive wakeup policy's three exits:
// a cross-core doorbell to a parked server is an IPI wake, a same-core
// one is a local wake, and a server given an unbounded spin budget never
// parks at all.
func TestAsyncRingWakeupKinds(t *testing.T) {
	run := func(t *testing.T, pollCore int, pol mk.WakePolicy) (*mk.Kernel, *SkyBridge) {
		t.Helper()
		eng, k, _, sb := newWorld(t)
		server := k.NewProcess("server")
		client := k.NewProcess("client")
		id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
		rs := startRingServer(t, sb, id, server, k.Mach.Cores[pollCore], pol)
		client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
			defer rs.Close(env)
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client: %v", err)
				return
			}
			r, err := sb.OpenRing(env, id, 4, 64, mk.WakePolicy{})
			if err != nil {
				t.Errorf("open ring: %v", err)
				return
			}
			for i := 0; i < 8; i++ {
				if err := r.Submit(env, Request{Regs: [4]uint64{uint64(i)}}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if err := r.Flush(env); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				if _, err := r.Reap(env, 1); err != nil {
					t.Errorf("reap: %v", err)
					return
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return k, sb
	}

	t.Run("ipi", func(t *testing.T) {
		// Client registration costs far exceed the default spin budget, so
		// the cross-core poll thread parks and the first doorbell IPIs it.
		k, sb := run(t, 1, mk.WakePolicy{})
		if k.IPIWakes == 0 {
			t.Errorf("IPIWakes = 0, want > 0")
		}
		if k.Parks == 0 {
			t.Errorf("Parks = 0, want > 0")
		}
		if sb.RingDoorbells == 0 {
			t.Errorf("RingDoorbells = 0, want > 0")
		}
	})
	t.Run("local", func(t *testing.T) {
		// Same-core client and poll thread share a clock, so the poll
		// thread only parks if the client idles cooperatively (yielding)
		// long enough for the spin budget to lapse with no work pending.
		eng, k, _, sb := newWorld(t)
		server := k.NewProcess("server")
		client := k.NewProcess("client")
		id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
		rs := startRingServer(t, sb, id, server, k.Mach.Cores[0], mk.WakePolicy{})
		client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
			defer rs.Close(env)
			if _, err := sb.RegisterClient(env, id); err != nil {
				t.Errorf("register client: %v", err)
				return
			}
			r, err := sb.OpenRing(env, id, 4, 64, mk.WakePolicy{})
			if err != nil {
				t.Errorf("open ring: %v", err)
				return
			}
			for i := 0; i < 4; i++ {
				// Idle with yields until the poll thread gives up spinning
				// and parks, then submit: the doorbell wakes it same-core.
				for !rs.parker.Waiting() {
					env.T.Checkpoint()
					env.Compute(64)
				}
				if err := r.Submit(env, Request{Regs: [4]uint64{uint64(i)}}); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if err := r.Flush(env); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
				if _, err := r.Reap(env, 1); err != nil {
					t.Errorf("reap: %v", err)
					return
				}
			}
		})
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if k.LocalWakes == 0 {
			t.Errorf("LocalWakes = 0, want > 0")
		}
		if k.IPIWakes != 0 {
			t.Errorf("IPIWakes = %d, want 0 (same core)", k.IPIWakes)
		}
	})
	t.Run("spin", func(t *testing.T) {
		// An effectively unbounded spin budget keeps the poll thread out of
		// the parked state entirely: no IPIs, no parks, and after the
		// armed-at-open doorbell every flush skips the crossing.
		k, sb := run(t, 1, mk.WakePolicy{SpinBudget: math.MaxUint64 / 2})
		if k.Parks != 0 {
			t.Errorf("Parks = %d, want 0", k.Parks)
		}
		if k.IPIWakes != 0 {
			t.Errorf("IPIWakes = %d, want 0", k.IPIWakes)
		}
		if k.SpinWakes == 0 {
			t.Errorf("SpinWakes = 0, want > 0")
		}
		if sb.RingDoorbellsSkipped == 0 {
			t.Errorf("RingDoorbellsSkipped = 0, want > 0")
		}
	})
}

// TestOpenRingValidation: depth and payload-capacity limits, including
// the same near-MaxInt overflow guard Layout has.
func TestOpenRingValidation(t *testing.T) {
	eng, k, _, sb := newWorld(t)
	server := k.NewProcess("server")
	client := k.NewProcess("client")
	id := registerEcho(t, eng, k, sb, server, k.Mach.Cores[0])
	if _, err := sb.NewRingServer(id, mk.WakePolicy{}); err != nil {
		t.Fatal(err)
	}
	client.Spawn("cli", k.Mach.Cores[0], func(env *mk.Env) {
		conn, err := sb.RegisterClient(env, id)
		if err != nil {
			t.Errorf("register client: %v", err)
			return
		}
		for _, bad := range []struct {
			qd, cap int
		}{
			{0, 64}, {MaxQD + 1, 64}, {8, -1},
			{8, conn.BufLen + 1},
			{8, math.MaxInt - 1}, // must error, not wrap into a "valid" layout
			{MaxQD, conn.BufLen}, // slots cannot fit
		} {
			if _, err := sb.OpenRing(env, id, bad.qd, bad.cap, mk.WakePolicy{}); err == nil {
				t.Errorf("OpenRing(qd=%d, cap=%d) succeeded, want error", bad.qd, bad.cap)
			}
		}
		r, err := sb.OpenRing(env, id, MaxQD, 0, mk.WakePolicy{})
		if err != nil {
			t.Errorf("OpenRing(max qd, min slots): %v", err)
			return
		}
		if r.SlotLen < ringSlotMin {
			t.Errorf("SlotLen = %d, want >= %d", r.SlotLen, ringSlotMin)
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLayoutOverflowGuard: Layout must reject capacities whose rounding
// arithmetic would overflow int, instead of wrapping negative and handing
// back out-of-buffer slot offsets.
func TestLayoutOverflowGuard(t *testing.T) {
	conn := &Connection{BufLen: 4 * hw.PageSize}
	for _, cap := range []int{
		math.MaxInt,
		math.MaxInt - 1,
		math.MaxInt - hw.LineSize,
		math.MaxInt/MaxBatch + 1,
		conn.BufLen + 1,
	} {
		l, err := conn.Layout(MaxBatch, cap)
		if err == nil {
			t.Errorf("Layout(%d, %d) = %+v, want error", MaxBatch, cap, l)
			continue
		}
		if !strings.Contains(err.Error(), "exceeds shared buffer") {
			t.Errorf("Layout(%d, %d) error = %v, want the capacity guard", MaxBatch, cap, err)
		}
	}
	// The guard must not break legitimate layouts.
	l, err := conn.Layout(4, 1024)
	if err != nil {
		t.Fatalf("Layout(4, 1024): %v", err)
	}
	if l.SlotLen != 1024 {
		t.Errorf("SlotLen = %d, want 1024", l.SlotLen)
	}
	for i := 0; i < 4; i++ {
		if off := l.PayloadOff(i); off < 0 || off+l.SlotLen > conn.BufLen {
			t.Errorf("slot %d at %d..%d escapes buffer %d", i, off, off+l.SlotLen, conn.BufLen)
		}
	}
}
