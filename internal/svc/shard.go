package svc

import (
	"fmt"

	"skybridge/internal/core"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// Batcher is a Conn whose transport can carry several requests in one
// crossing. SkyBridge connections batch natively (one trampoline+VMFUNC
// round trip serves the whole batch, core.DirectCallBatch); the other
// transports fall back to sequential calls via InvokeBatch.
type Batcher interface {
	Conn
	InvokeBatch(env *mk.Env, reqs []Req) ([]Resp, error)
}

// InvokeBatch submits reqs through c in one transport crossing when the
// connection supports batching, and as sequential Invoke calls otherwise,
// returning responses in submission order either way.
func InvokeBatch(env *mk.Env, c Conn, reqs []Req) ([]Resp, error) {
	if b, ok := c.(Batcher); ok {
		return b.InvokeBatch(env, reqs)
	}
	resps := make([]Resp, len(reqs))
	for i, req := range reqs {
		resp, err := c.Invoke(env, req)
		if err != nil {
			return nil, err
		}
		resps[i] = resp
	}
	return resps, nil
}

// PageBatch is how many page-sized payloads one batched crossing carries:
// a SkyBridge connection's 4-page shared buffer holds the batch headers
// plus three ~4 KiB slots (core.BatchLayout rounds each slot to a cache
// line).
const PageBatch = 3

// InvokeEach issues n requests through c in order, per at a time. Width
// per > 1 sends each group of up to per requests through one InvokeBatch
// call; width 1 calls Invoke once per request, so transports and wrappers
// that tell batches from calls see plain calls. req builds request i and
// done receives its response; the first error stops the run.
func InvokeEach(env *mk.Env, c Conn, per, n int, req func(i int) Req, done func(i int, resp Resp) error) error {
	if per <= 1 {
		for i := 0; i < n; i++ {
			resp, err := c.Invoke(env, req(i))
			if err == nil {
				err = done(i, resp)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	reqs := make([]Req, 0, per)
	for start := 0; start < n; start += per {
		reqs = reqs[:0]
		for i := start; i < min(start+per, n); i++ {
			reqs = append(reqs, req(i))
		}
		resps, err := InvokeBatch(env, c, reqs)
		if err != nil {
			return err
		}
		for j, resp := range resps {
			if err := done(start+j, resp); err != nil {
				return err
			}
		}
	}
	return nil
}

// InvokeBatch implements Batcher for SkyBridge connections: payloads are
// written straight into each request's ring slot (one copy, client side)
// and the whole batch crosses in one direct call round trip.
func (c *sbConn) InvokeBatch(env *mk.Env, reqs []Req) ([]Resp, error) {
	switch len(reqs) {
	case 0:
		return nil, nil
	case 1:
		resp, err := c.Invoke(env, reqs[0])
		if err != nil {
			return nil, err
		}
		return []Resp{resp}, nil
	}
	// The layout must match what core.DirectCallBatch derives: slots sized
	// to the largest request payload or declared reply capacity.
	maxLen := 0
	for i := range reqs {
		if len(reqs[i].Data) > maxLen {
			maxLen = len(reqs[i].Data)
		}
		if reqs[i].RespCap > maxLen {
			maxLen = reqs[i].RespCap
		}
	}
	layout, err := c.conn.Layout(len(reqs), maxLen)
	if err != nil {
		return nil, err
	}
	dreqs := make([]core.Request, len(reqs))
	for i, req := range reqs {
		dreqs[i].Regs = [4]uint64{req.Op, req.Args[0], req.Args[1], req.Args[2]}
		dreqs[i].Cap = req.RespCap
		if len(req.Data) > 0 {
			if len(req.Data) > layout.SlotLen {
				return nil, fmt.Errorf("svc: batch payload %d exceeds slot %d", len(req.Data), layout.SlotLen)
			}
			at := c.conn.ClientBuf + hw.VA(layout.PayloadOff(i))
			env.Write(at, req.Data, len(req.Data))
			dreqs[i].Buf, dreqs[i].Len = at, len(req.Data)
		}
	}
	dresps, err := c.sb.DirectCallBatch(env, c.serverID, dreqs)
	if err != nil {
		return nil, err
	}
	resps := make([]Resp, len(dresps))
	for i, dr := range dresps {
		resps[i] = Resp{Status: dr.Regs[0], Vals: [3]uint64{dr.Regs[1], dr.Regs[2], dr.Regs[3]}}
		if dr.Len > 0 {
			resps[i].Data = make([]byte, dr.Len)
			env.Read(c.conn.ClientBuf+hw.VA(layout.PayloadOff(i)), resps[i].Data, dr.Len)
		}
	}
	return resps, nil
}

// Sharded fans one logical service out over per-shard connections: Pick
// routes each request (typically by key hash) to the shard owning it.
// Registering every shard as its own server — one per core — is what
// turns SkyBridge's cheap crossing into multicore throughput: clients on
// different cores drive their shards concurrently.
type Sharded struct {
	Shards []Conn
	// Pick returns the shard index owning req. It must be deterministic
	// in the request (routing is part of the simulated results).
	Pick func(req Req) int
}

// NewSharded builds a sharded connection over per-shard conns.
func NewSharded(shards []Conn, pick func(req Req) int) *Sharded {
	return &Sharded{Shards: shards, Pick: pick}
}

// Invoke routes a single request to its shard.
func (s *Sharded) Invoke(env *mk.Env, req Req) (Resp, error) {
	return s.Shards[s.Pick(req)%len(s.Shards)].Invoke(env, req)
}

// InvokeBatch groups reqs by destination shard and submits one batched
// call per shard group (shards visited in index order), scattering the
// responses back into submission order. With all shards registered as
// SkyBridge servers, a batch of B requests spread over S shards costs S
// crossings instead of B.
func (s *Sharded) InvokeBatch(env *mk.Env, reqs []Req) ([]Resp, error) {
	groups := make([][]int, len(s.Shards))
	for i, req := range reqs {
		sh := s.Pick(req) % len(s.Shards)
		groups[sh] = append(groups[sh], i)
	}
	resps := make([]Resp, len(reqs))
	for sh, idxs := range groups {
		if len(idxs) == 0 {
			continue
		}
		sub := make([]Req, len(idxs))
		for j, i := range idxs {
			sub[j] = reqs[i]
		}
		subResps, err := InvokeBatch(env, s.Shards[sh], sub)
		if err != nil {
			return nil, fmt.Errorf("svc: shard %d: %w", sh, err)
		}
		for j, i := range idxs {
			resps[i] = subResps[j]
		}
	}
	return resps, nil
}
