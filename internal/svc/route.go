package svc

import (
	"skybridge/internal/core"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// Router is the epoch-aware client half of adaptive placement
// (core.Director): one tenant ring per sibling frontend, plus a
// read-only mapping of the Director's routing region. Every routed
// submit re-reads the epoch word (one charged 8-byte load of a
// line that stays cache-hot between migrations); when it moved, the
// owner table is re-read and the request goes to the shard's new
// owner. A request that still lands on a stale owner — it was already
// in the old owner's ring when the epoch bumped — comes back with the
// service's wrong-epoch status and is resubmitted by the caller, so
// every op executes exactly once, on the current owner.
type Router struct {
	Conns []*TenantConn // drain slot -> this client's ring on it

	routeVA hw.VA
	epoch   uint64
	owner   []byte

	// Stats (client-side).
	Refreshes uint64 // owner-table re-reads after an epoch move
	Retries   uint64 // wrong-epoch resubmits (caller-counted via NoteRetry)
}

// OpenRouter opens one tenant ring per sibling frontend (depth qd,
// payload capacity payloadCap) and maps the routing region read-only
// into the calling client.
func OpenRouter(env *mk.Env, d *core.Director, fes []*Frontend, qd, payloadCap int) (*Router, error) {
	rt := &Router{owner: make([]byte, d.Shards())}
	for _, f := range fes {
		c, err := f.OpenTenant(env, qd, payloadCap)
		if err != nil {
			return nil, err
		}
		rt.Conns = append(rt.Conns, c)
	}
	rt.routeVA = d.MapRoute(env)
	rt.refresh(env)
	return rt, nil
}

func (rt *Router) refresh(env *mk.Env) {
	env.Read(rt.routeVA+core.RouteOwnerOff, rt.owner, len(rt.owner))
	rt.Refreshes++
}

// ownerOf returns the drain slot currently owning shard, re-reading
// the owner table if the routing epoch moved since the last look.
func (rt *Router) ownerOf(env *mk.Env, shard int) int {
	if e := env.LoadU64(rt.routeVA); e != rt.epoch {
		rt.epoch = e
		rt.refresh(env)
	}
	return int(rt.owner[shard])
}

// Submit stamps the shard into Args[0] (the placed handler's ownership
// check reads it back) and submits to the shard's current owner.
// Returns the drain slot used so the caller can flush and track
// in-flight ops per connection. No simulated checkpoint separates the
// routing read from the ring write, so the routing decision and the
// entry placement are atomic against migrations.
func (rt *Router) Submit(env *mk.Env, shard int, req Req) (int, error) {
	req.Args[0] = uint64(shard)
	slot := rt.ownerOf(env, shard)
	return slot, rt.Conns[slot].Submit(env, req)
}

// NoteRetry counts a wrong-epoch resubmit.
func (rt *Router) NoteRetry() { rt.Retries++ }
