package fs

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"strings"
	"testing"

	"skybridge/internal/mk"
)

// goldenBalloc is the SHA-256 of TestBallocGolden's per-world records.
const goldenBalloc = "58dfbc4ada0dadf26b1f4e6b781a825f0a0dd54adc902d942f678b1a4b50662d"

// TestBallocGolden pins the block allocator's simulated cost. Big-lock and
// fine-lock worlds, over one bitmap block and over two, run a fragmenting
// create, write, truncate and unlink sequence with direct allocations
// between its steps. Their scans cross a 64-byte bitmap line, stop
// mid-byte, run into the second bitmap block, run to a bitmap limit that
// is not a multiple of 8, and end in "out of data blocks". Each world
// records every direct allocation's block number or error, then every
// core's clock, counters, D-TLB, L1D and L2 stats, the L3 stats and the
// bitmap bytes; the records hash to one constant.
func TestBallocGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four allocator worlds")
	}
	const bitsPerBlock = BlockSize * 8
	var rec bytes.Buffer
	var seen struct{ crossLine, midByte, secondBlock, full int }
	for _, lm := range lockModes {
		for _, blocks := range []int{700, bitsPerBlock + 300} {
			allocs := ballocWorld(t, &rec, lm.name, lm.cfg, blocks)
			for _, bn := range allocs {
				switch {
				case bn < 0:
					seen.full++
				case bn >= bitsPerBlock:
					seen.secondBlock++
				case bn >= 512:
					seen.crossLine++
				}
				if bn > 0 && bn%8 != 0 {
					seen.midByte++
				}
			}
		}
	}
	if seen.crossLine == 0 || seen.midByte == 0 || seen.secondBlock == 0 || seen.full != 4 {
		t.Errorf("sequence lost a scan shape: %+v", seen)
	}
	sum := sha256.Sum256(rec.Bytes())
	if got := hex.EncodeToString(sum[:]); got != goldenBalloc {
		t.Errorf("allocator charges moved: sha256 %s, want %s\nrecords:\n%s", got, goldenBalloc, rec.String())
	}
}

// ballocWorld formats a blocks-sized file system and runs the allocator
// sequence on it, writing the world's records to rec. It returns the
// block numbers the direct allocations got, -1 for "out of data blocks".
func ballocWorld(t *testing.T, rec io.Writer, mode string, cfg Config, blocks int) []int {
	t.Helper()
	const bitsPerBlock = BlockSize * 8
	var allocs []int
	fmt.Fprintf(rec, "world %s blocks=%d\n", mode, blocks)
	fsWorldCfg(t, blocks, cfg, func(env *mk.Env, f *FS, c *Client) {
		// alloc runs n direct allocations, eight per transaction, and
		// records each result; it stops at the first error.
		alloc := func(n int) bool {
			for n > 0 {
				f.begin(env)
				for i := 0; i < 8 && n > 0; i, n = i+1, n-1 {
					bn, err := f.balloc(env)
					if err != nil {
						fmt.Fprintf(rec, "alloc err %v\n", err)
						if !strings.Contains(err.Error(), "out of data blocks") {
							t.Errorf("%s/%d: balloc: %v", mode, blocks, err)
						}
						allocs = append(allocs, -1)
						f.end(env)
						return false
					}
					fmt.Fprintf(rec, "alloc %d\n", bn)
					allocs = append(allocs, bn)
				}
				if err := f.end(env); err != nil {
					t.Errorf("%s/%d: commit: %v", mode, blocks, err)
					return false
				}
			}
			return true
		}
		// fill marks blocks [from, to) allocated by writing the bitmap
		// bytes that cover them, one transaction per bitmap block.
		fill := func(from, to int) {
			for blk := from / bitsPerBlock; blk*bitsPerBlock < to; blk++ {
				lo, hi := max(from, blk*bitsPerBlock)-blk*bitsPerBlock, min(to, (blk+1)*bitsPerBlock)-blk*bitsPerBlock
				f.begin(env)
				b, err := f.bc.get(env, int(f.sb.BmapStart)+blk)
				if err != nil {
					t.Errorf("%s/%d: bitmap block %d: %v", mode, blocks, blk, err)
					f.end(env)
					return
				}
				img := append([]byte(nil), b.data[lo/8:(hi+7)/8]...)
				for bi := lo; bi < hi; bi++ {
					img[bi/8-lo/8] |= 1 << (bi % 8)
				}
				f.bc.write(env, b, lo/8, img)
				f.bc.put(b)
				if err := f.end(env); err != nil {
					t.Errorf("%s/%d: commit: %v", mode, blocks, err)
				}
			}
		}
		write := func(fd uint64, off, nblocks int, seed byte) {
			data := make([]byte, nblocks*BlockSize)
			for i := range data {
				data[i] = seed + byte(i*7)
			}
			if err := c.WriteAt(env, fd, off, data); err != nil {
				t.Errorf("%s/%d: write: %v", mode, blocks, err)
			}
		}

		// Six files written round-robin interleave their blocks across
		// the bitmap, past its first 64-byte line (block 512).
		var fds []uint64
		sizes := make([]int, 6)
		for i := range sizes {
			fd, _, err := c.Open(env, fmt.Sprintf("f%d", i), true)
			if err != nil {
				t.Errorf("%s/%d: create: %v", mode, blocks, err)
				return
			}
			fds = append(fds, fd)
		}
		for r := 0; r < 47; r++ {
			for i, fd := range fds {
				n := 1 + (r+i)%3
				write(fd, sizes[i]*BlockSize, n, byte(r+i))
				sizes[i] += n
			}
		}
		alloc(3)

		// Free blocks throughout the bitmap, then allocate into the holes.
		if err := c.Truncate(env, fds[1]); err != nil {
			t.Errorf("%s/%d: truncate: %v", mode, blocks, err)
		}
		if err := c.Unlink(env, "f3"); err != nil {
			t.Errorf("%s/%d: unlink: %v", mode, blocks, err)
		}
		alloc(11)
		fd, _, err := c.Open(env, "g", true)
		if err != nil {
			t.Errorf("%s/%d: create: %v", mode, blocks, err)
			return
		}
		for r := 0; r < 9; r++ {
			write(fd, r*3*BlockSize, 3, byte(100+r))
		}
		if err := c.Unlink(env, "f5"); err != nil {
			t.Errorf("%s/%d: unlink: %v", mode, blocks, err)
		}
		alloc(5)

		// Run the allocator out of blocks. Over two bitmap blocks, all
		// but the last ten free blocks are marked first, so every scan
		// runs through the whole first block.
		if blocks > bitsPerBlock {
			fill(0, blocks-10)
		}
		if alloc(blocks) {
			t.Errorf("%s/%d: allocator never ran out", mode, blocks)
		}

		m := env.T.Core.Machine()
		for _, cpu := range m.Cores {
			fmt.Fprintf(rec, "cpu%d clock=%d counters=%+v dtlb=%+v l1d=%+v l2=%+v\n",
				cpu.ID, cpu.Clock, cpu.Counters, cpu.DTLB.Stats, cpu.L1D.Stats, cpu.L2.Stats)
		}
		fmt.Fprintf(rec, "l3=%+v\n", m.L3.Stats)
		h := sha256.New()
		for blk := 0; blk*bitsPerBlock < blocks; blk++ {
			b, err := f.bc.get(env, int(f.sb.BmapStart)+blk)
			if err != nil {
				t.Errorf("%s/%d: bitmap block %d: %v", mode, blocks, blk, err)
				return
			}
			h.Write(b.data)
			f.bc.put(b)
		}
		fmt.Fprintf(rec, "bitmap=%x\n", h.Sum(nil))
	})
	return allocs
}
