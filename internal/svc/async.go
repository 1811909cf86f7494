package svc

import (
	"skybridge/internal/core"
	"skybridge/internal/mk"
)

// AsyncConn is the asynchronous counterpart of a SkyBridge Conn: requests
// are submitted into the connection's submission ring (core.AsyncRing)
// without crossing, made visible with Flush (a doorbell crossing only
// when the server sleeps), and results collected with Reap. Up to the
// ring's queue depth requests overlap the server's work.
type AsyncConn struct {
	Ring *core.AsyncRing
}

// OpenAsync registers the calling client to serverID (if not already) and
// opens a ring of depth qd with payload slots of at least payloadCap
// bytes. The server must have a core.RingServer poll loop attached.
func OpenAsync(sb *core.SkyBridge, env *mk.Env, serverID, qd, payloadCap int, pol mk.WakePolicy) (*AsyncConn, error) {
	if err := bind(sb, env, serverID); err != nil {
		return nil, err
	}
	r, err := sb.OpenRing(env, serverID, qd, payloadCap, pol)
	if err != nil {
		return nil, err
	}
	return &AsyncConn{Ring: r}, nil
}

// bind registers the calling client to serverID unless it already holds
// a connection there (rings are laid over that connection's buffer).
func bind(sb *core.SkyBridge, env *mk.Env, serverID int) error {
	if _, ok := sb.ConnectionOf(env.P, serverID); ok {
		return nil
	}
	_, err := sb.RegisterClient(env, serverID)
	return err
}

// Submit enqueues one request. Payloads are staged straight into the
// request's ring slot (one copy, client side). ErrRingFull surfaces as
// core.ErrRingFull; callers reap and retry.
func (c *AsyncConn) Submit(env *mk.Env, req Req) error {
	dreq := core.Request{Regs: [4]uint64{req.Op, req.Args[0], req.Args[1], req.Args[2]}}
	if len(req.Data) > 0 {
		slot := c.Ring.SlotVA()
		env.Write(slot, req.Data, len(req.Data))
		dreq.Buf, dreq.Len = slot, len(req.Data)
	}
	return c.Ring.Submit(env, dreq)
}

// Flush makes pending submissions visible to the server (doorbell only if
// it sleeps). Call before a blocking Reap.
func (c *AsyncConn) Flush(env *mk.Env) error { return c.Ring.Flush(env) }

// Inflight returns submissions not yet reaped.
func (c *AsyncConn) Inflight() int { return c.Ring.Inflight() }

// Reap collects at least minN responses (0 = whatever is ready),
// blocking adaptively like the underlying ring. Responses come back in
// submission order.
func (c *AsyncConn) Reap(env *mk.Env, minN int) ([]Resp, error) {
	cs, err := c.Ring.Reap(env, minN)
	if err != nil {
		return nil, err
	}
	resps := make([]Resp, len(cs))
	for i, comp := range cs {
		resps[i] = Resp{
			Status: comp.Regs[0],
			Vals:   [3]uint64{comp.Regs[1], comp.Regs[2], comp.Regs[3]},
			Data:   comp.Data,
		}
	}
	return resps, nil
}
