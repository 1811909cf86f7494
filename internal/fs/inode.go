package fs

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
)

// inodeBlock returns the block and intra-block offset of an inode.
func (f *FS) inodeBlock(inum uint64) (int, int) {
	return int(f.sb.InodeStart) + int(inum)/InodesPerBlock,
		(int(inum) % InodesPerBlock) * InodeSize
}

// readInode loads an inode image.
func (f *FS) readInode(env *mk.Env, inum uint64) (dinode, error) {
	bn, off := f.inodeBlock(inum)
	b, err := f.bc.get(env, bn)
	if err != nil {
		return dinode{}, err
	}
	d := decodeDinode(b.read(env, off, InodeSize))
	f.bc.put(b)
	return d, nil
}

// writeInode stores an inode image (inside a transaction).
func (f *FS) writeInode(env *mk.Env, inum uint64, d dinode) error {
	bn, off := f.inodeBlock(inum)
	b, err := f.bc.get(env, bn)
	if err != nil {
		return err
	}
	img := make([]byte, InodeSize)
	d.encode(img)
	f.bc.write(env, b, off, img)
	f.bc.put(b)
	return nil
}

// allocInode finds a free inode and types it. Callers hold the namespace
// lock, which serializes allocation.
func (f *FS) allocInode(env *mk.Env, typ uint16) (uint64, error) {
	for inum := uint64(1); inum < f.sb.NInodes; inum++ {
		d, err := f.readInode(env, inum)
		if err != nil {
			return 0, err
		}
		if d.Type == TypeFree {
			d = dinode{Type: typ, Nlink: 1}
			if err := f.writeInode(env, inum, d); err != nil {
				return 0, err
			}
			return inum, nil
		}
	}
	return 0, fmt.Errorf("fs: out of inodes")
}

// zeroBlock is the image balloc writes over a new block; it is only ever
// read from (bcache.write copies it).
var zeroBlock [BlockSize]byte

// balloc allocates a zeroed data block. In fine mode alloclk covers the
// whole scan: the read-bit→write-bit window crosses park points (shard
// locks, the log lock), so without it two writers could claim one bit.
//
// Like xv6, the scan tests the bitmap one bit at a time, each test a
// one-byte load of the bit's byte. The search runs on the host copy, and
// the loads it stands for (the bits up to and including the clear one, or
// the block's whole limit) are charged as eight loads of each whole byte,
// then the rest on the last byte.
func (f *FS) balloc(env *mk.Env) (int, error) {
	if f.alloclk != nil {
		f.alloclk.Lock(env)
		defer f.alloclk.Unlock(env)
	}
	bitsPerBlock := BlockSize * 8
	for bn := 0; bn < int(f.sb.Size); bn += bitsPerBlock {
		bmapBlock := int(f.sb.BmapStart) + bn/bitsPerBlock
		b, err := f.bc.get(env, bmapBlock)
		if err != nil {
			return 0, err
		}
		limit := min(bitsPerBlock, int(f.sb.Size)-bn)
		bi := firstClear(b.data, limit)
		tested := min(bi+1, limit)
		env.ReadRepeat(b.slotVA, tested/8, 8)
		env.ReadRepeat(b.slotVA+hw.VA(tested/8), 1, tested%8)
		if bi == limit {
			f.bc.put(b)
			continue
		}
		byteOff := bi / 8
		f.bc.write(env, b, byteOff, []byte{b.data[byteOff] | 1<<(bi%8)})
		zb, err := f.bc.get(env, bn+bi)
		if err != nil {
			f.bc.put(b)
			return 0, err
		}
		f.bc.write(env, zb, 0, zeroBlock[:])
		f.bc.put(zb)
		f.bc.put(b)
		return bn + bi, nil
	}
	return 0, fmt.Errorf("fs: out of data blocks")
}

// firstClear returns the first clear bit of bitmap below limit, or limit
// if there is none. Bit i is bit i%8 of byte i/8; bitmap holds whole
// 64-bit words past limit.
func firstClear(bitmap []byte, limit int) int {
	for i := 0; i < limit; i += 64 {
		if w := ^binary.LittleEndian.Uint64(bitmap[i/8:]); w != 0 {
			return min(i+bits.TrailingZeros64(w), limit)
		}
	}
	return limit
}

// bfree releases a data block.
func (f *FS) bfree(env *mk.Env, bn int) error {
	if f.alloclk != nil {
		f.alloclk.Lock(env)
		defer f.alloclk.Unlock(env)
	}
	bitsPerBlock := BlockSize * 8
	bmapBlock := int(f.sb.BmapStart) + bn/bitsPerBlock
	b, err := f.bc.get(env, bmapBlock)
	if err != nil {
		return err
	}
	defer f.bc.put(b)
	bi := bn % bitsPerBlock
	byteOff, mask := bi/8, byte(1)<<(bi%8)
	cur := b.read(env, byteOff, 1)
	if cur[0]&mask == 0 {
		return fmt.Errorf("fs: freeing free block %d", bn)
	}
	f.bc.write(env, b, byteOff, []byte{cur[0] &^ mask})
	return nil
}

// indirectLookup reads (or allocates) slot idx in the indirect block at
// *addr, allocating the indirect block itself if needed. The buffer's
// reference pins it across the balloc call — which parks on the
// allocator lock in fine mode — so the slot write below cannot land in a
// recycled buffer.
func (f *FS) indirectLookup(env *mk.Env, addr *uint64, idx int, alloc bool) (uint64, error) {
	if *addr == 0 {
		if !alloc {
			return 0, nil
		}
		bn, err := f.balloc(env)
		if err != nil {
			return 0, err
		}
		*addr = uint64(bn)
	}
	b, err := f.bc.get(env, int(*addr))
	if err != nil {
		return 0, err
	}
	defer f.bc.put(b)
	slot := binary.LittleEndian.Uint64(b.read(env, 8*idx, 8))
	if slot == 0 && alloc {
		bn, err := f.balloc(env)
		if err != nil {
			return 0, err
		}
		slot = uint64(bn)
		f.bc.write(env, b, 8*idx, binary.LittleEndian.AppendUint64(nil, slot))
	}
	return slot, nil
}

// bmap resolves file block fb of inode d to a device block, allocating as
// needed. It reports whether the inode image changed.
func (f *FS) bmap(env *mk.Env, d *dinode, fb int, alloc bool) (uint64, bool, error) {
	switch {
	case fb < NDirect:
		if d.Addrs[fb] != 0 || !alloc {
			return d.Addrs[fb], false, nil
		}
		bn, err := f.balloc(env)
		if err != nil {
			return 0, false, err
		}
		d.Addrs[fb] = uint64(bn)
		return d.Addrs[fb], true, nil

	case fb < NDirect+NIndirect:
		prev := d.Addrs[NDirect]
		bn, err := f.indirectLookup(env, &d.Addrs[NDirect], fb-NDirect, alloc)
		return bn, d.Addrs[NDirect] != prev, err

	case fb < MaxFileBlocks:
		fb -= NDirect + NIndirect
		prev := d.Addrs[NDirect+1]
		l1, err := f.indirectLookup(env, &d.Addrs[NDirect+1], fb/NIndirect, alloc)
		changed := d.Addrs[NDirect+1] != prev
		if err != nil || l1 == 0 {
			return 0, changed, err
		}
		bn, err := f.indirectLookup(env, &l1, fb%NIndirect, alloc)
		return bn, changed, err

	default:
		return 0, false, fmt.Errorf("fs: file block %d beyond maximum", fb)
	}
}

// readi reads up to n bytes at off from inode inum.
func (f *FS) readi(env *mk.Env, inum uint64, off, n int) ([]byte, error) {
	d, err := f.readInode(env, inum)
	if err != nil {
		return nil, err
	}
	if off >= int(d.Size) {
		return nil, nil
	}
	if off+n > int(d.Size) {
		n = int(d.Size) - off
	}
	out := make([]byte, 0, n)
	for n > 0 {
		fb, bo := off/BlockSize, off%BlockSize
		chunk := BlockSize - bo
		if chunk > n {
			chunk = n
		}
		bn, _, err := f.bmap(env, &d, fb, false)
		if err != nil {
			return nil, err
		}
		if bn == 0 {
			out = append(out, make([]byte, chunk)...) // hole
		} else {
			b, err := f.bc.get(env, int(bn))
			if err != nil {
				return nil, err
			}
			out = append(out, b.read(env, bo, chunk)...)
			f.bc.put(b)
		}
		off += chunk
		n -= chunk
	}
	return out, nil
}

// writei writes data at off into inode inum (inside a transaction),
// growing the file as needed.
func (f *FS) writei(env *mk.Env, inum uint64, off int, data []byte) error {
	d, err := f.readInode(env, inum)
	if err != nil {
		return err
	}
	n := len(data)
	pos := 0
	dirty := false
	for pos < n {
		fb, bo := (off+pos)/BlockSize, (off+pos)%BlockSize
		chunk := BlockSize - bo
		if chunk > n-pos {
			chunk = n - pos
		}
		bn, ch, err := f.bmap(env, &d, fb, true)
		if err != nil {
			return err
		}
		dirty = dirty || ch
		b, err := f.bc.get(env, int(bn))
		if err != nil {
			return err
		}
		f.bc.write(env, b, bo, data[pos:pos+chunk])
		f.bc.put(b)
		pos += chunk
	}
	if off+n > int(d.Size) {
		d.Size = uint64(off + n)
		dirty = true
	}
	if dirty {
		return f.writeInode(env, inum, d)
	}
	return nil
}

// itrunc frees all blocks of inode inum and zeroes its size.
func (f *FS) itrunc(env *mk.Env, inum uint64) error {
	d, err := f.readInode(env, inum)
	if err != nil {
		return err
	}
	for i := 0; i < NDirect; i++ {
		if err := f.freeTree(env, d.Addrs[i], 0); err != nil {
			return err
		}
	}
	if err := f.freeTree(env, d.Addrs[NDirect], 1); err != nil {
		return err
	}
	if err := f.freeTree(env, d.Addrs[NDirect+1], 2); err != nil {
		return err
	}
	d.Addrs = [NDirect + 2]uint64{}
	d.Size = 0
	return f.writeInode(env, inum, d)
}

// freeTree frees block a (none if 0) and, for an indirect block of the
// given depth, every block it maps first.
func (f *FS) freeTree(env *mk.Env, a uint64, depth int) error {
	if a == 0 {
		return nil
	}
	if depth > 0 {
		b, err := f.bc.get(env, int(a))
		if err != nil {
			return err
		}
		for i := 0; i < NIndirect; i++ {
			slot := binary.LittleEndian.Uint64(b.read(env, 8*i, 8))
			if err := f.freeTree(env, slot, depth-1); err != nil {
				f.bc.put(b)
				return err
			}
		}
		f.bc.put(b)
	}
	return f.bfree(env, int(a))
}
