package kv

import (
	"fmt"

	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// AsyncKV drives the sharded store over asynchronous SkyBridge rings: one
// ring per store shard, operations submitted without crossing and results
// reaped in bulk. A full target ring is flushed and reaped (blocking for
// one completion) before the submit retries, so the pipeline stays at the
// ring's depth without ever erroring out on backpressure.
type AsyncKV struct {
	Shards int
	// Rings[i] is the connection to store shard i (kv.ShardOf routing).
	Rings []*svc.AsyncConn
	// done stashes responses reaped during backpressure handling until
	// the caller's next Reap.
	done []svc.Resp
}

// NewAsyncKV bundles per-shard async connections (index = shard).
func NewAsyncKV(rings []*svc.AsyncConn) *AsyncKV {
	return &AsyncKV{Shards: len(rings), Rings: rings}
}

// SubmitPut enqueues a put (payload: PutFrame(key, val)) on the owning
// shard's ring.
func (a *AsyncKV) SubmitPut(env *mk.Env, key, val []byte) error {
	return a.submit(env, ShardOf(key, a.Shards), svc.Req{Op: OpPut, Data: PutFrame(key, val)})
}

// SubmitGet enqueues a get on the owning shard's ring.
func (a *AsyncKV) SubmitGet(env *mk.Env, key []byte) error {
	return a.submit(env, ShardOf(key, a.Shards), svc.Req{Op: OpGet, Data: key})
}

func (a *AsyncKV) submit(env *mk.Env, shard int, req svc.Req) error {
	c := a.Rings[shard]
	if c.Inflight() == c.Ring.QD {
		// Backpressure: make the pending window visible, then block for
		// one completion to free a slot.
		if err := c.Flush(env); err != nil {
			return err
		}
		resps, err := c.Reap(env, 1)
		if err != nil {
			return err
		}
		a.done = append(a.done, resps...)
	}
	return c.Submit(env, req)
}

// FlushAll makes every ring's pending submissions visible (doorbells only
// where the server sleeps).
func (a *AsyncKV) FlushAll(env *mk.Env) error {
	for _, c := range a.Rings {
		if err := c.Flush(env); err != nil {
			return err
		}
	}
	return nil
}

// Reap returns every response available right now (stashed backpressure
// responses first), without blocking.
func (a *AsyncKV) Reap(env *mk.Env) ([]svc.Resp, error) {
	out := a.done
	a.done = nil
	for _, c := range a.Rings {
		resps, err := c.Reap(env, 0)
		if err != nil {
			return nil, err
		}
		out = append(out, resps...)
	}
	return out, nil
}

// Drain flushes and blocks until every in-flight operation has completed,
// returning all remaining responses.
func (a *AsyncKV) Drain(env *mk.Env) ([]svc.Resp, error) {
	out := a.done
	a.done = nil
	for _, c := range a.Rings {
		if err := c.Flush(env); err != nil {
			return nil, err
		}
		resps, err := c.Reap(env, c.Inflight())
		if err != nil {
			return nil, err
		}
		out = append(out, resps...)
	}
	return out, nil
}

// CheckResp validates a store response: puts return StatusOK, gets
// StatusOK or StatusNotFound; anything else is an upstream failure.
func CheckResp(r svc.Resp) error {
	if r.Status != StatusOK && r.Status != StatusNotFound {
		return fmt.Errorf("kv: async response status %d", r.Status)
	}
	return nil
}
