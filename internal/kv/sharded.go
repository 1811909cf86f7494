package kv

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// Sharded serving: the store and the encryption service split into N
// per-core shards, each shard its own process (and, under SkyBridge, its
// own registered server). Keys route to store shards by FNV-1a hash;
// crypto shards are stateless, so each client uses the shard local to its
// core. Combined with batched IPC (svc.InvokeBatch), a client submits a
// whole batch of operations per trampoline crossing per shard.

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

// ShardedClient drives the encrypt+put / get+decrypt pipeline over the
// sharded stack with batched IPC: values cross to the client's local
// crypto shard as one batch, and store operations batch per destination
// shard (svc.Sharded groups them).
type ShardedClient struct {
	Enc svc.Conn
	KV  *svc.Sharded
	// Text/TextLen model the client's code footprint (see Client).
	Text    hw.VA
	TextLen int
	textSeq uint64
}

// touchAll executes the client's per-operation code footprint once per
// operation in the batch (marshalling work does not amortize).
func (c *ShardedClient) touchAll(env *mk.Env, n int) {
	if c.Text == 0 {
		return
	}
	for i := 0; i < n; i++ {
		textTouch(env, c.Text, &c.textSeq)
	}
}

// InsertBatch encrypts vals (one batched crossing to the crypto shard)
// and stores them under keys (one batched crossing per store shard).
func (c *ShardedClient) InsertBatch(env *mk.Env, keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kv: %d keys, %d vals", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	c.touchAll(env, len(keys))
	encReqs := make([]svc.Req, len(vals))
	for i, v := range vals {
		encReqs[i] = svc.Req{Op: OpEncrypt, Data: v}
	}
	encResps, err := svc.InvokeBatch(env, c.Enc, encReqs)
	if err != nil {
		return err
	}
	putReqs := make([]svc.Req, len(keys))
	for i, key := range keys {
		putReqs[i] = svc.Req{Op: OpPut, Data: PutFrame(key, encResps[i].Data)}
	}
	putResps, err := c.KV.InvokeBatch(env, putReqs)
	if err != nil {
		return err
	}
	for i, resp := range putResps {
		if resp.Status != StatusOK {
			return fmt.Errorf("kv: batched put %d failed: status %d", i, resp.Status)
		}
	}
	return nil
}

// QueryBatch fetches keys (one batched crossing per store shard) and
// decrypts the found values (one batched crossing to the crypto shard).
// Missing keys yield nil entries.
func (c *ShardedClient) QueryBatch(env *mk.Env, keys [][]byte) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	c.touchAll(env, len(keys))
	getReqs := make([]svc.Req, len(keys))
	for i, key := range keys {
		getReqs[i] = svc.Req{Op: OpGet, Data: key}
	}
	getResps, err := c.KV.InvokeBatch(env, getReqs)
	if err != nil {
		return nil, err
	}
	var decReqs []svc.Req
	var found []int
	for i, resp := range getResps {
		switch resp.Status {
		case StatusOK:
			decReqs = append(decReqs, svc.Req{Op: OpDecrypt, Data: resp.Data})
			found = append(found, i)
		case StatusNotFound:
		default:
			return nil, fmt.Errorf("kv: batched get %d failed: status %d", i, resp.Status)
		}
	}
	out := make([][]byte, len(keys))
	if len(decReqs) == 0 {
		return out, nil
	}
	decResps, err := svc.InvokeBatch(env, c.Enc, decReqs)
	if err != nil {
		return nil, err
	}
	for j, i := range found {
		out[i] = decResps[j].Data
	}
	return out, nil
}
