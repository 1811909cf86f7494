package core

import (
	"fmt"

	"skybridge/internal/mk"
	"skybridge/internal/obs"
)

// DirectCall implements direct_server_call: the client's thread executes
// the server's handler in the server's address space with no kernel
// involvement. Round-trip direct cost is ~396 cycles warm (2x VMFUNC plus
// ~64 cycles/leg of register save/restore and stack installation, §6.3).
func (sb *SkyBridge) DirectCall(env *mk.Env, serverID int, req Request) (Response, error) {
	return sb.call(env, serverID, req, 0)
}

// DirectCallTimeout is DirectCall with the §7 DoS defense: if the server
// exceeds the cycle budget, control is forced back to the client with
// ErrTimeout.
func (sb *SkyBridge) DirectCallTimeout(env *mk.Env, serverID int, req Request, timeout uint64) (Response, error) {
	return sb.call(env, serverID, req, timeout)
}

func (sb *SkyBridge) call(env *mk.Env, serverID int, req Request, timeout uint64) (Response, error) {
	conn, ok := sb.bindings[env.P][serverID]
	if !ok {
		return Response{}, ErrNotRegistered
	}
	// One span per direct call, with per-phase cycle attribution.
	x := crossing{sb: sb, conn: conn}
	if err := x.enter(env, "skybridge.call", "flow.call", obs.FlowSync, &sb.DirectCalls); err != nil {
		return Response{}, err
	}

	// Long payloads go through the connection's shared buffer: one copy,
	// client side, user mode.
	if req.Len > 0 {
		if req.Len > conn.BufLen {
			return Response{}, x.fail(fmt.Errorf("core: payload %d exceeds shared buffer %d", req.Len, conn.BufLen))
		}
		if req.Buf != conn.ClientBuf {
			// Copy the caller's internal buffer into the shared buffer;
			// callers that build requests in place skip this copy.
			data := make([]byte, req.Len)
			env.Read(req.Buf, data, req.Len)
			env.Write(conn.ClientBuf, data, req.Len)
		}
	}
	if err := x.switchIn(); err != nil {
		return Response{}, err
	}

	// --- invoke the registered handler on the caller's thread ---
	cpu, srv := x.cpu, conn.Server
	srv.Calls++
	req.SharedBuf = conn.ServerBuf
	start := cpu.Clock
	resp := srv.Handler(x.senv, req)
	if timeout > 0 && cpu.Clock-start > timeout {
		// Forced return (§7): the control flow comes back to the client.
		return Response{}, x.abort(ErrTimeout)
	}
	// The client reads a long reply out of the shared buffer, so its
	// length must fit there.
	if resp.Len < 0 || resp.Len > conn.BufLen {
		return Response{}, x.abort(fmt.Errorf("core: reply length %d exceeds shared buffer %d", resp.Len, conn.BufLen))
	}
	if err := x.leave(); err != nil {
		return Response{}, err
	}
	sb.DirectCalls++
	if x.tr != nil {
		x.phases()
		x.tr.End(x.span, cpu.Clock,
			obs.U("server", uint64(serverID)),
			obs.U("trampoline", x.tTramp-x.t0),
			obs.U("vmfunc", x.tSwitch-x.tTramp),
			obs.U("server_cycles", x.tServer-x.tSwitch),
			obs.U("return", cpu.Clock-x.tServer))
	}
	if o := sb.Calls; o != nil {
		// Exact partition of [t0, now): the handler's cycles are service,
		// everything else on the round trip is crossing work.
		end, service := cpu.Clock, x.tServer-x.tSwitch
		rec := &sb.rec
		*rec = obs.CallRecord{
			Flow: x.fid, Kind: obs.CallSync, Seq: sb.DirectCalls,
			Server: serverID, Start: x.t0, End: end,
		}
		rec.Phases[obs.PhaseService] = service
		rec.Phases[obs.PhaseCrossing] = (end - x.t0) - service
		o.Observe(rec)
	}
	return resp, nil
}

// ReadReply copies a long reply out of the connection's shared buffer into
// buf (client side, charged).
func (conn *Connection) ReadReply(env *mk.Env, buf []byte, n int) {
	env.Read(conn.ClientBuf, buf, n)
}

// WriteRequest writes payload bytes directly into the shared buffer
// (clients that build their request in place skip the trampoline copy).
func (conn *Connection) WriteRequest(env *mk.Env, data []byte) {
	env.Write(conn.ClientBuf, data, len(data))
}
