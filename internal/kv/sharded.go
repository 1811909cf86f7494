package kv

import (
	"fmt"

	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// Sharded serving: the store and the encryption service split into N
// per-core shards, each shard its own process (and, under SkyBridge, its
// own registered server). Keys route to store shards by FNV-1a hash;
// crypto shards are stateless, so each client uses the shard local to its
// core. Combined with batched IPC (svc.InvokeBatch), a client (Client)
// submits a whole batch of operations per trampoline crossing per shard.

// ShardOf returns the store shard owning key among n shards.
func ShardOf(key []byte, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a(key) % uint64(n))
}

// PickReq routes a store request (OpPut: PutFrame(key, val); OpGet: key)
// to its shard by key hash. Malformed requests route to shard 0, whose
// handler rejects them.
func PickReq(n int) func(req svc.Req) int {
	return func(req svc.Req) int {
		key := req.Data
		if req.Op == OpPut {
			var ok bool
			if key, _, ok = SplitPut(req.Data); !ok {
				return 0
			}
		}
		return ShardOf(key, n)
	}
}

// NewStoreShards creates n store shards, each in its own process named
// "<name><i>" with nslots slots of slotSize bytes.
func NewStoreShards(k *mk.Kernel, name string, n, nslots, slotSize int) []*Store {
	shards := make([]*Store, n)
	for i := range shards {
		shards[i] = NewStore(k.NewProcess(fmt.Sprintf("%s%d", name, i)), nslots, slotSize)
	}
	return shards
}

// NewCryptoShards creates n encryption-service shards, each in its own
// process named "<name><i>".
func NewCryptoShards(k *mk.Kernel, name string, n int) []*Crypto {
	shards := make([]*Crypto, n)
	for i := range shards {
		shards[i] = NewCrypto(k.NewProcess(fmt.Sprintf("%s%d", name, i)))
	}
	return shards
}

// CipherStream applies the encryption service's XOR stream to data (the
// transform is its own inverse). Exported so loaders can precompute the
// stored ciphertext of a record without driving the pipeline.
func CipherStream(data []byte) []byte {
	out := make([]byte, len(data))
	for i, b := range data {
		out[i] = b ^ byte(0x5A+i*7)
	}
	return out
}

// Preload stores key/val directly (a server warming its own shard before
// serving); the write is charged to env like any put.
func (s *Store) Preload(env *mk.Env, key, val []byte) error {
	if status := s.put(env, key, val); status != StatusOK {
		return fmt.Errorf("kv: preload status %d", status)
	}
	return nil
}
