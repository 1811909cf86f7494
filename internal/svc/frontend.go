package svc

import (
	"skybridge/internal/core"
	"skybridge/internal/mk"
)

// Multi-tenant frontend transport: the svc-level face of core's MPSC
// ring multiplexing (internal/core/mpsc.go). One server process runs a
// Frontend whose drain loop multiplexes the per-tenant rings of N
// registered tenants; each tenant holds a TenantConn — an AsyncConn
// whose ring is tagged with its server-assigned tenant ID and wired into
// the frontend's active-tenant directory.

// TenantHandler is a multi-tenant service implementation: a Handler plus
// the ring-authenticated tenant ID the request arrived on (bound
// server-side at ring-open time; a client cannot forge it — see
// core.RingStatusBadTenant).
type TenantHandler func(env *mk.Env, tenant int, req Req) Resp

// Frontend is a registered multi-tenant server: the SkyBridge server
// registration plus its core.Frontend drain.
type Frontend struct {
	SB       *core.SkyBridge
	FE       *core.Frontend
	ServerID int
}

// NewFrontend registers env's process as a SkyBridge server for up to
// maxConns tenants and attaches a multi-tenant drain with the given
// config. Requests reach handler with the authenticated tenant ID; the
// synchronous DirectCall path carries no tenant binding and is rejected
// outright (status core.RingStatusBadTenant) — frontend servers speak
// rings only.
func NewFrontend(sb *core.SkyBridge, env *mk.Env, maxConns int, cfg core.FrontendConfig, handler TenantHandler) (*Frontend, error) {
	id, err := sb.RegisterServer(env, maxConns, 0, func(env *mk.Env, _ core.Request) core.Response {
		return core.Response{Regs: [4]uint64{core.RingStatusBadTenant}}
	})
	if err != nil {
		return nil, err
	}
	fe, err := sb.NewFrontend(id, cfg, coreHandler(handler))
	if err != nil {
		return nil, err
	}
	return &Frontend{SB: sb, FE: fe, ServerID: id}, nil
}

// Serve runs the drain loop (on a dedicated server-process thread).
func (f *Frontend) Serve(env *mk.Env) error { return f.FE.Serve(env) }

// Close shuts the drain loop down after a final drain of every ring.
func (f *Frontend) Close(env *mk.Env) { f.FE.Close(env) }

// TenantConn is a tenant's connection to a Frontend: an AsyncConn over a
// tenant-tagged ring, plus the server-assigned tenant ID.
type TenantConn struct {
	AsyncConn
	Tenant int
}

// OpenTenant registers the calling client to the frontend's server (if
// not already) and opens its tenant ring: depth qd (0 = the frontend's
// credit), payload slots of at least payloadCap bytes.
func (f *Frontend) OpenTenant(env *mk.Env, qd, payloadCap int) (*TenantConn, error) {
	if _, ok := f.SB.ConnectionOf(env.P, f.ServerID); !ok {
		if _, err := f.SB.RegisterClient(env, f.ServerID); err != nil {
			return nil, err
		}
	}
	r, tenant, err := f.FE.OpenTenantRing(env, qd, payloadCap)
	if err != nil {
		return nil, err
	}
	return &TenantConn{AsyncConn: AsyncConn{Ring: r}, Tenant: tenant}, nil
}
