package kv

import (
	"bytes"
	"fmt"

	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// Multi-tenant keyspace isolation for the KV store: every tenant's keys
// live under a per-tenant prefix, and the frontend-facing handler
// refuses any request whose key escapes the authenticated tenant's
// prefix — tenant A's ring (and key, and EPTP binding) can never read or
// write tenant B's records even though all records share one store.

// StatusWrongTenant is returned for a request whose key does not carry
// the authenticated tenant's prefix.
const StatusWrongTenant = 4

// TenantPrefix returns tenant t's keyspace prefix.
func TenantPrefix(tenant int) string { return fmt.Sprintf("t%04x|", tenant) }

// TenantKey builds tenant t's namespaced form of key.
func TenantKey(tenant int, key string) string { return TenantPrefix(tenant) + key }

// TenantGuard wraps a store handler with per-tenant keyspace
// enforcement: the key parsed from each request (OpGet's payload, or
// OpPut's keyLen-framed key) must carry the authenticated tenant's
// prefix, else StatusWrongTenant and the store is never touched.
// Malformed frames fall through to the handler, which rejects them with
// StatusBadReq as before.
func TenantGuard(h svc.Handler) func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
	return func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
		var key []byte
		switch req.Op {
		case OpPut:
			if k, _, ok := SplitPut(req.Data); ok {
				key = k
			}
		case OpGet:
			key = req.Data
		}
		if key != nil && !bytes.HasPrefix(key, []byte(TenantPrefix(tenant))) {
			return svc.Resp{Status: StatusWrongTenant}
		}
		return h(env, req)
	}
}
