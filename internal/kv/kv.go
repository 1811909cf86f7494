// Package kv implements the paper's motivating benchmark (Figure 1): a
// client, an encryption server, and a key-value store server. Insert
// requests flow client -> encryption -> KV store; queries flow back through
// decryption. The three processes are connected by a svc transport, so the
// same pipeline runs as Baseline (one address space, function calls),
// Delay (function calls plus an IPC-sized busy wait), kernel IPC (same or
// cross core), or SkyBridge — the five bars of Figures 2 and 8.
package kv

import (
	"encoding/binary"
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// Service opcodes.
const (
	OpPut uint64 = iota + 1
	OpGet
	OpEncrypt
	OpDecrypt
)

// Status codes.
const (
	StatusOK       = svc.StatusOK
	StatusNotFound = 1
	StatusFull     = 2
	StatusBadReq   = 3
)

// Store is the key-value store server: an open-addressing hash table held
// in the owning process's simulated memory, so every probe and copy is
// charged through the cache hierarchy.
type Store struct {
	Proc     *mk.Process
	base     hw.VA
	nslots   int
	slotSize int
	used     int

	// text is the store's code footprint (its own copy of hash/probe/
	// runtime code).
	text    hw.VA
	textSeq uint64

	// Stats.
	Puts, Gets uint64
}

// Each pipeline component carries textBytes of code (its share of logic
// plus its own runtime copy — runtimes are not shared across address
// spaces) and executes a rotating opTextBytes window of it per operation.
// In the Baseline configuration all components share a single copy that
// fits the L1 i-cache; the multi-process configurations run 3x the
// footprint, which is the source of Table 1's i-cache pollution.
const (
	textBytes   = 24 << 10
	opTextBytes = 256
)

// textTouch executes a rotating window of a component's text.
func textTouch(env *mk.Env, text hw.VA, seq *uint64) {
	off := (*seq * 0x9E37) % uint64(textBytes-opTextBytes)
	off &^= uint64(hw.LineSize - 1)
	*seq++
	env.ExecCode(text+hw.VA(off), opTextBytes)
}

// slot layout: keyLen u16 | valLen u16 | key bytes | val bytes.
const slotHdr = 4

// NewStore allocates a store with nslots slots of slotSize bytes each.
func NewStore(proc *mk.Process, nslots, slotSize int) *Store {
	return &Store{
		Proc:     proc,
		base:     proc.Alloc(nslots * slotSize),
		nslots:   nslots,
		slotSize: slotSize,
		text:     proc.Alloc(textBytes),
	}
}

// fnv1a hashes a key; the caller charges hashing compute.
func fnv1a(key []byte) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, b := range key {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return h
}

// UseSharedText points the store's code footprint at a shared region: the
// Baseline configuration links all components into one process, where they
// share a single runtime copy.
func (s *Store) UseSharedText(va hw.VA) { s.text = va }

// slotVA returns the address of slot i.
func (s *Store) slotVA(i int) hw.VA { return s.base + hw.VA(i*s.slotSize) }

// put stores key/val via linear probing.
func (s *Store) put(env *mk.Env, key, val []byte) uint64 {
	if slotHdr+len(key)+len(val) > s.slotSize {
		return StatusBadReq
	}
	env.Compute(uint64(5 + len(key))) // hash
	h := int(fnv1a(key) % uint64(s.nslots))
	for probe := 0; probe < s.nslots; probe++ {
		i := (h + probe) % s.nslots
		var hdr [slotHdr]byte
		env.Read(s.slotVA(i), hdr[:], slotHdr)
		klen := int(hdr[0]) | int(hdr[1])<<8
		if klen == 0 {
			// Empty slot: claim it.
			s.writeSlot(env, i, key, val)
			s.used++
			s.Puts++
			return StatusOK
		}
		existing := make([]byte, klen)
		env.Read(s.slotVA(i)+slotHdr, existing, klen)
		if string(existing) == string(key) {
			s.writeSlot(env, i, key, val)
			s.Puts++
			return StatusOK
		}
	}
	return StatusFull
}

func (s *Store) writeSlot(env *mk.Env, i int, key, val []byte) {
	buf := make([]byte, slotHdr+len(key)+len(val))
	buf[0], buf[1] = byte(len(key)), byte(len(key)>>8)
	buf[2], buf[3] = byte(len(val)), byte(len(val)>>8)
	copy(buf[slotHdr:], key)
	copy(buf[slotHdr+len(key):], val)
	env.Write(s.slotVA(i), buf, len(buf))
}

// get fetches the value for key.
func (s *Store) get(env *mk.Env, key []byte) ([]byte, uint64) {
	env.Compute(uint64(5 + len(key)))
	h := int(fnv1a(key) % uint64(s.nslots))
	for probe := 0; probe < s.nslots; probe++ {
		i := (h + probe) % s.nslots
		var hdr [slotHdr]byte
		env.Read(s.slotVA(i), hdr[:], slotHdr)
		klen := int(hdr[0]) | int(hdr[1])<<8
		if klen == 0 {
			return nil, StatusNotFound
		}
		vlen := int(hdr[2]) | int(hdr[3])<<8
		existing := make([]byte, klen)
		env.Read(s.slotVA(i)+slotHdr, existing, klen)
		if string(existing) == string(key) {
			val := make([]byte, vlen)
			env.Read(s.slotVA(i)+slotHdr+hw.VA(klen), val, vlen)
			s.Gets++
			return val, StatusOK
		}
	}
	return nil, StatusNotFound
}

// PutFrame builds an OpPut payload: the key length as a little-endian
// u16, the key, then the value.
func PutFrame(key, val []byte) []byte {
	b := make([]byte, 2+len(key)+len(val))
	binary.LittleEndian.PutUint16(b, uint16(len(key)))
	copy(b[2:], key)
	copy(b[2+len(key):], val)
	return b
}

// SplitPut parses an OpPut payload built by PutFrame. ok is false when
// data is too short to hold its key length or its key.
func SplitPut(data []byte) (key, val []byte, ok bool) {
	if len(data) < 2 {
		return nil, nil, false
	}
	klen := int(binary.LittleEndian.Uint16(data))
	if 2+klen > len(data) {
		return nil, nil, false
	}
	return data[2 : 2+klen], data[2+klen:], true
}

// Handler serves OpPut (Data = PutFrame(key, val)) and OpGet
// (Data = key).
func (s *Store) Handler() svc.Handler {
	return func(env *mk.Env, req svc.Req) svc.Resp {
		textTouch(env, s.text, &s.textSeq)
		switch req.Op {
		case OpPut:
			key, val, ok := SplitPut(req.Data)
			if !ok {
				return svc.Resp{Status: StatusBadReq}
			}
			return svc.Resp{Status: s.put(env, key, val)}
		case OpGet:
			val, status := s.get(env, req.Data)
			return svc.Resp{Status: status, Data: val}
		default:
			return svc.Resp{Status: StatusBadReq}
		}
	}
}

// Crypto is the encryption server: a rolling XOR stream cipher over a key
// schedule held in its address space. (The paper does not name its cipher;
// what matters for the benchmark is per-byte compute plus buffer traffic in
// a separate protection domain.)
type Crypto struct {
	Proc    *mk.Process
	keyVA   hw.VA
	keyLen  int
	scratch hw.VA
	text    hw.VA
	textSeq uint64

	// Ops counts served requests.
	Ops uint64
}

// NewCrypto creates the encryption server state.
func NewCrypto(proc *mk.Process) *Crypto {
	c := &Crypto{Proc: proc, keyLen: 256}
	c.keyVA = proc.Alloc(hw.PageSize)
	c.scratch = proc.Alloc(4 * hw.PageSize)
	c.text = proc.Alloc(textBytes)
	return c
}

// UseSharedText points the cipher's code footprint at a shared region (see
// Store.UseSharedText).
func (c *Crypto) UseSharedText(va hw.VA) { c.text = va }

// transform is its own inverse (XOR stream).
func (c *Crypto) transform(env *mk.Env, data []byte) []byte {
	// Execute the cipher's code footprint, load the key schedule, and
	// stream the payload through the scratch buffer (charged), plus
	// 2 cycles/byte of ALU work.
	textTouch(env, c.text, &c.textSeq)
	env.Read(c.keyVA, nil, c.keyLen)
	env.Write(c.scratch, data, len(data))
	env.Compute(uint64(2 * len(data)))
	out := CipherStream(data)
	env.Read(c.scratch, nil, len(data))
	c.Ops++
	return out
}

// Handler serves OpEncrypt/OpDecrypt.
func (c *Crypto) Handler() svc.Handler {
	return func(env *mk.Env, req svc.Req) svc.Resp {
		switch req.Op {
		case OpEncrypt, OpDecrypt:
			return svc.Resp{Data: c.transform(env, req.Data)}
		default:
			return svc.Resp{Status: StatusBadReq}
		}
	}
}

// Client drives the encrypt+put / get+decrypt pipeline. Values cross to
// the encryption service as one batch, and store operations batch per
// destination shard (svc.Sharded groups them); a single store is a
// one-shard Sharded. Insert and Query are one-key batches, and a batch
// of one is one plain call on every transport.
type Client struct {
	Enc svc.Conn
	KV  *svc.Sharded
	// Text, when non-zero, is the client's code footprint (request
	// marshalling, its own runtime copy).
	Text    hw.VA
	textSeq uint64
}

// touch executes the client's per-operation code footprint once per
// operation (marshalling work does not amortize over a batch).
func (c *Client) touch(env *mk.Env, n int) {
	if c.Text == 0 {
		return
	}
	for i := 0; i < n; i++ {
		textTouch(env, c.Text, &c.textSeq)
	}
}

// Insert encrypts the value and stores it under key.
func (c *Client) Insert(env *mk.Env, key, val []byte) error {
	return c.InsertBatch(env, [][]byte{key}, [][]byte{val})
}

// Query fetches and decrypts the value under key; a missing key is an
// error.
func (c *Client) Query(env *mk.Env, key []byte) ([]byte, error) {
	vals, err := c.QueryBatch(env, [][]byte{key})
	if err != nil {
		return nil, err
	}
	if vals[0] == nil {
		return nil, fmt.Errorf("kv: get failed: status %d", StatusNotFound)
	}
	return vals[0], nil
}

// InsertBatch encrypts vals (one batched crossing to the encryption
// service) and stores them under keys (one batched crossing per store
// shard).
func (c *Client) InsertBatch(env *mk.Env, keys, vals [][]byte) error {
	if len(keys) != len(vals) {
		return fmt.Errorf("kv: %d keys, %d vals", len(keys), len(vals))
	}
	if len(keys) == 0 {
		return nil
	}
	c.touch(env, len(keys))
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
			return fmt.Errorf("kv: put %d failed: status %d", i, resp.Status)
		}
	}
	return nil
}

// QueryBatch fetches keys (one batched crossing per store shard) and
// decrypts the found values (one batched crossing to the encryption
// service). A missing key yields a nil entry; a found empty value a
// non-nil empty one.
func (c *Client) QueryBatch(env *mk.Env, keys [][]byte) ([][]byte, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	c.touch(env, len(keys))
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
			return nil, fmt.Errorf("kv: get %d failed: status %d", i, resp.Status)
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
		if out[i] = decResps[j].Data; out[i] == nil {
			out[i] = []byte{} // found, but empty
		}
	}
	return out, nil
}
