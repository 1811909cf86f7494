// Package svc is a small service-transport abstraction that lets the same
// server implementation (block device, file system, KV store, encryption
// service) be reached three ways:
//
//   - Local: a plain function call inside the same address space — the
//     paper's "Baseline" configuration;
//   - IPC: synchronous kernel IPC through an mk.Endpoint — the
//     configuration every microkernel uses today;
//   - SkyBridge: a direct server call through internal/core.
//
// The evaluation's comparisons (Figures 2 and 8, Table 4, Figures 9-11)
// are all "same app, different transport", which this package makes a
// one-line change.
package svc

import (
	"fmt"

	"skybridge/internal/core"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// Req is a service request: an opcode, three scalar arguments, and an
// optional payload.
type Req struct {
	Op   uint64
	Args [3]uint64
	Data []byte
	// RespCap, when non-zero, declares the largest reply payload the caller
	// expects. Batching transports size their per-request ring slots from
	// max(len(Data), RespCap); single-shot transports ignore it.
	RespCap int
}

// Resp is a service response: a status, three scalar results, and an
// optional payload.
type Resp struct {
	Status uint64
	Vals   [3]uint64
	Data   []byte
}

// StatusOK is the conventional success status.
const StatusOK = 0

// Handler implements a service. env is the execution context in the
// *server's* address space (whatever transport delivered the request).
// Like req.Data, env is valid only until the handler returns: the
// SkyBridge transport refills the same Env on the calling thread's next
// crossing (core.Handler), so a handler must not keep the pointer.
//
// req.Data is only valid for the duration of the call: the transports reuse
// the backing buffer for subsequent requests, so a handler that keeps
// payload bytes must copy them (all in-tree handlers copy what they keep
// into simulated memory or fresh slices).
type Handler func(env *mk.Env, req Req) Resp

// Conn invokes a service from a client environment.
type Conn interface {
	Invoke(env *mk.Env, req Req) (Resp, error)
}

// --- Local transport (Baseline) ---

// localConn calls the handler in the caller's own address space, modelling
// the paper's Baseline configuration where client and servers share one
// virtual address space and are connected by function calls.
type localConn struct {
	handler Handler
	// delay, when non-zero, adds the paper's "Delay" configuration: a
	// busy-loop equal to the direct cost of an IPC (493 cycles).
	delay uint64
}

// NewLocal returns a Conn that performs plain function calls.
func NewLocal(handler Handler) Conn { return &localConn{handler: handler} }

// NewDelay returns a Conn that performs function calls padded with a fixed
// busy-wait, the paper's "Delay" configuration (§2.1.2).
func NewDelay(handler Handler, cycles uint64) Conn {
	return &localConn{handler: handler, delay: cycles}
}

func (c *localConn) Invoke(env *mk.Env, req Req) (Resp, error) {
	env.Compute(10) // call/return overhead
	if c.delay > 0 {
		env.Compute(c.delay)
	}
	resp := c.handler(env, req)
	if c.delay > 0 {
		env.Compute(c.delay)
	}
	return resp, nil
}

// --- Kernel IPC transport ---

// ipcConn marshals requests over a synchronous kernel endpoint.
type ipcConn struct {
	ep       *mk.Endpoint
	sendBuf  hw.VA
	replyBuf hw.VA
	bufLen   int
}

// NewIPC creates a client connection to an endpoint; per-connection send
// and reply buffers are allocated in the client process.
func NewIPC(client *mk.Process, ep *mk.Endpoint) Conn {
	const bufPages = 4
	client.Grant(ep)
	return &ipcConn{
		ep:       ep,
		sendBuf:  client.Alloc(bufPages * hw.PageSize),
		replyBuf: client.Alloc(bufPages * hw.PageSize),
		bufLen:   bufPages * hw.PageSize,
	}
}

func (c *ipcConn) Invoke(env *mk.Env, req Req) (Resp, error) {
	msg := mk.Msg{Regs: [4]uint64{req.Op, req.Args[0], req.Args[1], req.Args[2]}}
	if len(req.Data) > 0 {
		if len(req.Data) > c.bufLen {
			return Resp{}, fmt.Errorf("svc: payload %d exceeds buffer", len(req.Data))
		}
		env.Write(c.sendBuf, req.Data, len(req.Data))
		msg.Buf, msg.Len = c.sendBuf, len(req.Data)
	}
	reply, err := env.Call(c.ep, msg, c.replyBuf)
	if err != nil {
		return Resp{}, err
	}
	resp := Resp{Status: reply.Regs[0], Vals: [3]uint64{reply.Regs[1], reply.Regs[2], reply.Regs[3]}}
	if reply.Len > 0 {
		resp.Data = make([]byte, reply.Len)
		env.Read(c.replyBuf, resp.Data, reply.Len)
	}
	return resp, nil
}

// ServeIPC runs handler as an IPC server loop on env's thread. The server
// receive buffer is allocated in the server process. It returns when the
// endpoint closes.
func ServeIPC(env *mk.Env, ep *mk.Endpoint, handler Handler) {
	recvBuf := env.P.Alloc(4 * hw.PageSize)
	outBuf := env.P.Alloc(4 * hw.PageSize)
	// One serve loop is one server thread, so a single request buffer can be
	// reused across iterations (handlers do not retain req.Data; see Handler).
	var reqBuf []byte
	env.K.Serve(env, ep, recvBuf, func(env *mk.Env, m mk.Msg) mk.Msg {
		req := Req{Op: m.Regs[0], Args: [3]uint64{m.Regs[1], m.Regs[2], m.Regs[3]}}
		if m.Len > 0 {
			if cap(reqBuf) < m.Len {
				reqBuf = make([]byte, m.Len)
			}
			req.Data = reqBuf[:m.Len]
			env.Read(m.Buf, req.Data, m.Len)
		}
		resp := handler(env, req)
		out := mk.Msg{Regs: [4]uint64{resp.Status, resp.Vals[0], resp.Vals[1], resp.Vals[2]}}
		if len(resp.Data) > 0 {
			env.Write(outBuf, resp.Data, len(resp.Data))
			out.Buf, out.Len = outBuf, len(resp.Data)
		}
		return out
	})
}

// --- SkyBridge transport ---

// sbConn invokes a service through a SkyBridge direct server call.
type sbConn struct {
	sb       *core.SkyBridge
	serverID int
	conn     *core.Connection
}

// RegisterSkyBridgeServer registers handler as a SkyBridge server on env's
// process and returns the server ID.
func RegisterSkyBridgeServer(sb *core.SkyBridge, env *mk.Env, maxConns int, handler Handler) (int, error) {
	serve := coreHandler(func(env *mk.Env, _ int, req Req) Resp { return handler(env, req) })
	return sb.RegisterServer(env, maxConns, 0, func(env *mk.Env, dreq core.Request) core.Response {
		return serve(env, 0, dreq)
	})
}

// coreHandler adapts a service handler to core's register form: it reads
// the request payload out of the shared buffer or ring slot, runs h, and
// writes the reply payload back in its place. Direct server calls execute
// on the *calling* thread, and a frontend's handlers can nest at park
// points too, so several simulated threads can be inside one adaptor at
// once. Request buffers therefore come from a free list: each in-flight
// request owns its buffer exclusively from pop to push, and the push
// happens only after the reply payload has been written out (handlers do
// not retain req.Data; see Handler).
func coreHandler(h TenantHandler) core.TenantHandler {
	var bufs [][]byte
	return func(env *mk.Env, tenant int, dreq core.Request) core.Response {
		req := Req{Op: dreq.Regs[0], Args: [3]uint64{dreq.Regs[1], dreq.Regs[2], dreq.Regs[3]}}
		var buf []byte
		if dreq.Len > 0 {
			if n := len(bufs); n > 0 {
				buf, bufs = bufs[n-1], bufs[:n-1]
			}
			if cap(buf) < dreq.Len {
				buf = make([]byte, dreq.Len)
			}
			req.Data = buf[:dreq.Len]
			env.Read(dreq.SharedBuf, req.Data, dreq.Len)
		}
		resp := h(env, tenant, req)
		out := core.Response{Regs: [4]uint64{resp.Status, resp.Vals[0], resp.Vals[1], resp.Vals[2]}}
		if len(resp.Data) > 0 {
			env.Write(dreq.SharedBuf, resp.Data, len(resp.Data))
			out.Len = len(resp.Data)
		}
		if buf != nil {
			bufs = append(bufs, buf)
		}
		return out
	}
}

// NewSkyBridge registers the calling client to serverID and returns a Conn
// that performs direct server calls.
func NewSkyBridge(sb *core.SkyBridge, env *mk.Env, serverID int) (Conn, error) {
	conn, err := sb.RegisterClient(env, serverID)
	if err != nil {
		return nil, err
	}
	return &sbConn{sb: sb, serverID: serverID, conn: conn}, nil
}

func (c *sbConn) Invoke(env *mk.Env, req Req) (Resp, error) {
	dreq := core.Request{Regs: [4]uint64{req.Op, req.Args[0], req.Args[1], req.Args[2]}}
	if len(req.Data) > 0 {
		// Write the payload straight into the shared buffer (one copy).
		c.conn.WriteRequest(env, req.Data)
		dreq.Len = len(req.Data)
		dreq.Buf = c.conn.ClientBuf
	}
	dresp, err := c.sb.DirectCall(env, c.serverID, dreq)
	if err != nil {
		return Resp{}, err
	}
	resp := Resp{Status: dresp.Regs[0], Vals: [3]uint64{dresp.Regs[1], dresp.Regs[2], dresp.Regs[3]}}
	if dresp.Len > 0 {
		resp.Data = make([]byte, dresp.Len)
		c.conn.ReadReply(env, resp.Data, dresp.Len)
	}
	return resp, nil
}
