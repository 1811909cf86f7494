// Package blockdev implements the RAM-disk block device server of the
// paper's SQLite3 evaluation (§6.5: "we use a RAM disk device to work as
// the block device and the file system communicates with the device with
// IPC"). Blocks live in the device process's simulated memory, so every
// read and write is charged through the cache hierarchy and the stored
// bytes are authoritative.
package blockdev

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// BlockSize is the device block size in bytes.
const BlockSize = 4096

// Service opcodes.
const (
	OpRead uint64 = iota + 1
	OpWrite
	OpSize
	OpFlush
)

// Status codes.
const (
	StatusOK       = svc.StatusOK
	StatusBadBlock = 1
	StatusBadOp    = 2
)

// Device is a RAM disk owned by a process.
type Device struct {
	Proc    *mk.Process
	base    hw.VA
	nblocks int

	// Stats.
	Reads  uint64
	Writes uint64
}

// New allocates an nblocks RAM disk inside proc's address space.
func New(proc *mk.Process, nblocks int) *Device {
	return &Device{
		Proc:    proc,
		base:    proc.Alloc(nblocks * BlockSize),
		nblocks: nblocks,
	}
}

// Blocks returns the device size in blocks.
func (d *Device) Blocks() int { return d.nblocks }

// Handler returns the device's service handler. The serving environment
// must execute in d.Proc's address space (IPC server thread, SkyBridge
// direct env, or the owning process itself for the Baseline configuration).
func (d *Device) Handler() svc.Handler {
	return func(env *mk.Env, req Req) Resp {
		return d.handle(env, req)
	}
}

// Req and Resp alias the svc types for readability.
type (
	Req  = svc.Req
	Resp = svc.Resp
)

func (d *Device) handle(env *mk.Env, req Req) Resp {
	switch req.Op {
	case OpRead:
		bn := int(req.Args[0])
		if bn < 0 || bn >= d.nblocks {
			return Resp{Status: StatusBadBlock}
		}
		d.Reads++
		buf := make([]byte, BlockSize)
		env.Read(d.base+hw.VA(bn*BlockSize), buf, BlockSize)
		return Resp{Status: StatusOK, Data: buf}
	case OpWrite:
		bn := int(req.Args[0])
		if bn < 0 || bn >= d.nblocks || len(req.Data) != BlockSize {
			return Resp{Status: StatusBadBlock}
		}
		d.Writes++
		env.Write(d.base+hw.VA(bn*BlockSize), req.Data, BlockSize)
		return Resp{Status: StatusOK}
	case OpSize:
		return Resp{Status: StatusOK, Vals: [3]uint64{uint64(d.nblocks)}}
	case OpFlush:
		env.Compute(200) // device barrier
		return Resp{Status: StatusOK}
	default:
		return Resp{Status: StatusBadOp}
	}
}

// Client is a typed wrapper over a transport connection to a device.
type Client struct {
	Conn svc.Conn
}

// ReadBlock fetches block bn.
func (c *Client) ReadBlock(env *mk.Env, bn int) ([]byte, error) {
	resp, err := c.call(env, Req{Op: OpRead, Args: [3]uint64{uint64(bn)}})
	return resp.Data, err
}

// WriteBlock stores block bn.
func (c *Client) WriteBlock(env *mk.Env, bn int, data []byte) error {
	_, err := c.call(env, Req{Op: OpWrite, Args: [3]uint64{uint64(bn)}, Data: data})
	return err
}

// ReadBlocks fetches the given blocks, per to a transport crossing
// (svc.InvokeEach). The RespCap hint sizes each batch slot for a full
// block reply even though read requests carry no payload.
func (c *Client) ReadBlocks(env *mk.Env, per int, bns []int) ([][]byte, error) {
	out := make([][]byte, len(bns))
	return out, svc.InvokeEach(env, c.Conn, per, len(bns),
		func(i int) Req { return Req{Op: OpRead, Args: [3]uint64{uint64(bns[i])}, RespCap: BlockSize} },
		func(i int, resp Resp) error {
			out[i] = resp.Data
			return status(OpRead, bns[i], resp)
		})
}

// WriteBlocks stores datas[i] at block bns[i], per to a transport
// crossing. Within a batch the device applies entries in submission
// order, so a caller folding a journal/log protocol into one crossing
// keeps its write ordering.
func (c *Client) WriteBlocks(env *mk.Env, per int, bns []int, datas [][]byte) error {
	return svc.InvokeEach(env, c.Conn, per, len(bns),
		func(i int) Req { return Req{Op: OpWrite, Args: [3]uint64{uint64(bns[i])}, Data: datas[i]} },
		func(i int, resp Resp) error { return status(OpWrite, bns[i], resp) })
}

// Flush issues a device barrier.
func (c *Client) Flush(env *mk.Env) error {
	_, err := c.call(env, Req{Op: OpFlush})
	return err
}

// call invokes req and turns a failed status into an error.
func (c *Client) call(env *mk.Env, req Req) (Resp, error) {
	resp, err := c.Conn.Invoke(env, req)
	if err != nil {
		return Resp{}, err
	}
	return resp, status(req.Op, int(req.Args[0]), resp)
}

// status reports a failed reply to op on block bn as an error.
func status(op uint64, bn int, resp Resp) error {
	if resp.Status != StatusOK {
		return fmt.Errorf("blockdev: op %d on block %d: status %d", op, bn, resp.Status)
	}
	return nil
}
