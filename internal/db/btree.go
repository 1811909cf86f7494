package db

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"skybridge/internal/mk"
)

// B+tree page layout:
//
//	byte 0    : page type (1 = leaf, 2 = interior)
//	bytes 2-3 : cell count
//	bytes 4-5 : used bytes in the cell area
//	bytes 6-9 : rightmost child (interior pages)
//	bytes 12+ : cells, packed in key order
//
// Leaf cell:     key int64 | value length u16 | value bytes
// Interior cell: key int64 | left child u32 (keys <= key live in child)
const (
	pageLeaf     = 1
	pageInterior = 2
	btHdrSize    = 12
)

// MaxValueSize is the largest value storable in a leaf cell (no overflow
// pages in this engine).
const MaxValueSize = PageSize - btHdrSize - 16

type btCell struct {
	key   int64
	val   []byte // leaf
	child int    // interior
}

type btPage struct {
	typ        int
	cells      []btCell
	rightChild int
}

func (bp *btPage) cellBytes() int {
	n := 0
	for _, c := range bp.cells {
		if bp.typ == pageLeaf {
			n += 10 + len(c.val)
		} else {
			n += 12
		}
	}
	return n
}

// parsePage decodes a B+tree page, charging the reads. A used-bytes field
// or a cell that runs past the page is an error; the used-bytes check
// comes before the body read is charged, so valid pages charge the same.
func parsePage(env *mk.Env, pg *page) (*btPage, error) {
	hdr := pg.read(env, 0, btHdrSize)
	ncells := int(binary.LittleEndian.Uint16(hdr[2:]))
	bp := &btPage{
		typ:        int(hdr[0]),
		rightChild: int(binary.LittleEndian.Uint32(hdr[6:])),
		cells:      make([]btCell, 0, ncells), // at most 65,535 (uint16)
	}
	used := int(binary.LittleEndian.Uint16(hdr[4:]))
	cellHdr := 12 // key, child
	switch {
	case bp.typ == pageLeaf:
		cellHdr = 10 // key, value length
	case bp.typ != pageInterior:
		return nil, fmt.Errorf("db: page %d: bad btree page type %d", pg.no, bp.typ)
	}
	if used > PageSize-btHdrSize {
		return nil, fmt.Errorf("db: page %d: %d used bytes overrun the page", pg.no, used)
	}
	body := pg.read(env, btHdrSize, used)
	off := 0
	for i := 0; i < ncells; i++ {
		if off+cellHdr > len(body) {
			return nil, fmt.Errorf("db: page %d: truncated cell %d", pg.no, i)
		}
		c := btCell{key: int64(binary.LittleEndian.Uint64(body[off:]))}
		if bp.typ == pageLeaf {
			vlen := int(binary.LittleEndian.Uint16(body[off+8:]))
			off += cellHdr
			if off+vlen > len(body) {
				return nil, fmt.Errorf("db: page %d: cell %d value overruns the page", pg.no, i)
			}
			c.val = append([]byte(nil), body[off:off+vlen]...)
			off += vlen
		} else {
			c.child = int(binary.LittleEndian.Uint32(body[off+8:]))
			off += cellHdr
		}
		bp.cells = append(bp.cells, c)
	}
	return bp, nil
}

// storePage serializes a B+tree page back, charging the write.
func (t *Btree) storePage(env *mk.Env, pg *page, bp *btPage) error {
	buf := make([]byte, PageSize)
	buf[0] = byte(bp.typ)
	binary.LittleEndian.PutUint16(buf[2:], uint16(len(bp.cells)))
	binary.LittleEndian.PutUint32(buf[6:], uint32(bp.rightChild))
	off := btHdrSize
	for _, c := range bp.cells {
		binary.LittleEndian.PutUint64(buf[off:], uint64(c.key))
		off += 8
		if bp.typ == pageLeaf {
			binary.LittleEndian.PutUint16(buf[off:], uint16(len(c.val)))
			off += 2
			copy(buf[off:], c.val)
			off += len(c.val)
		} else {
			binary.LittleEndian.PutUint32(buf[off:], uint32(c.child))
			off += 4
		}
	}
	binary.LittleEndian.PutUint16(buf[4:], uint16(off-btHdrSize))
	return t.pager.Write(env, pg, 0, buf[:off])
}

// Btree is a B+tree rooted at a stable page number.
type Btree struct {
	pager *Pager
	Root  int
}

// CreateBtree allocates an empty tree (inside a transaction).
func CreateBtree(env *mk.Env, pager *Pager) (*Btree, error) {
	pg, err := pager.Allocate(env)
	if err != nil {
		return nil, err
	}
	t := &Btree{pager: pager, Root: pg.no}
	return t, t.storePage(env, pg, &btPage{typ: pageLeaf})
}

// OpenBtree attaches to an existing tree.
func OpenBtree(pager *Pager, root int) *Btree { return &Btree{pager: pager, Root: root} }

// search returns the index of the first cell whose key is >= key.
func (bp *btPage) search(key int64) int {
	return sort.Search(len(bp.cells), func(i int) bool { return bp.cells[i].key >= key })
}

// find returns the index of key's cell, and whether it is there.
func (bp *btPage) find(key int64) (int, bool) {
	i := bp.search(key)
	return i, i < len(bp.cells) && bp.cells[i].key == key
}

// findChild returns the child of an interior page to descend into for key.
func findChild(bp *btPage, key int64) int {
	if i := bp.search(key); i < len(bp.cells) {
		return bp.cells[i].child
	}
	return bp.rightChild
}

// descend walks from the root to the leaf whose key range holds key and
// returns that leaf's page and cells.
func (t *Btree) descend(env *mk.Env, key int64) (*page, *btPage, error) {
	no := t.Root
	for {
		pg, err := t.pager.Get(env, no)
		if err != nil {
			return nil, nil, err
		}
		bp, err := parsePage(env, pg)
		if err != nil || bp.typ == pageLeaf {
			return pg, bp, err
		}
		no = findChild(bp, key)
	}
}

// Search returns the value stored under key.
func (t *Btree) Search(env *mk.Env, key int64) ([]byte, bool, error) {
	_, bp, err := t.descend(env, key)
	if err != nil {
		return nil, false, err
	}
	if i, ok := bp.find(key); ok {
		return bp.cells[i].val, true, nil
	}
	return nil, false, nil
}

// Insert stores value under key, replacing any existing value.
func (t *Btree) Insert(env *mk.Env, key int64, value []byte) error {
	if len(value) > MaxValueSize {
		return fmt.Errorf("db: value of %d bytes exceeds max %d", len(value), MaxValueSize)
	}
	sepKey, newChild, err := t.insertInto(env, t.Root, key, value)
	if err != nil {
		return err
	}
	if newChild == 0 {
		return nil
	}
	// Root split: the root page number must stay stable (the catalog
	// references it), so move the old root's content to a fresh page and
	// make the root an interior page over the two halves.
	rootPg, err := t.pager.Get(env, t.Root)
	if err != nil {
		return err
	}
	rootBP, err := parsePage(env, rootPg)
	if err != nil {
		return err
	}
	moved, err := t.pager.Allocate(env)
	if err != nil {
		return err
	}
	if err := t.storePage(env, moved, rootBP); err != nil {
		return err
	}
	newRoot := &btPage{
		typ:        pageInterior,
		cells:      []btCell{{key: sepKey, child: moved.no}},
		rightChild: newChild,
	}
	// Re-fetch: Allocate may have evicted rootPg's slot.
	rootPg, err = t.pager.Get(env, t.Root)
	if err != nil {
		return err
	}
	return t.storePage(env, rootPg, newRoot)
}

// insertInto inserts into the subtree at page no. If the page split, it
// returns the separator key and the new right sibling's page number.
func (t *Btree) insertInto(env *mk.Env, no int, key int64, value []byte) (int64, int, error) {
	pg, err := t.pager.Get(env, no)
	if err != nil {
		return 0, 0, err
	}
	bp, err := parsePage(env, pg)
	if err != nil {
		return 0, 0, err
	}

	if bp.typ == pageInterior {
		childNo := findChild(bp, key)
		sep, newChild, err := t.insertInto(env, childNo, key, value)
		if err != nil || newChild == 0 {
			return 0, 0, err
		}
		// The child split: insert (sep -> old child), new child takes the
		// old child's position.
		i := bp.search(sep)
		bp.cells = slices.Insert(bp.cells, i, btCell{key: sep, child: childNo})
		if i == len(bp.cells)-1 {
			// Old child was the rightmost: the new child becomes rightmost.
			if bp.rightChild == childNo {
				bp.rightChild = newChild
			} else {
				bp.cells[i+1].child = newChild
			}
		} else {
			bp.cells[i+1].child = newChild
		}
		return t.storeOrSplit(env, pg, bp)
	}

	// Leaf.
	cell := btCell{key: key, val: append([]byte(nil), value...)}
	if i, ok := bp.find(key); ok {
		bp.cells[i] = cell
	} else {
		bp.cells = slices.Insert(bp.cells, i, cell)
	}
	return t.storeOrSplit(env, pg, bp)
}

// storeOrSplit writes bp back to pg, splitting it first if it overflows.
func (t *Btree) storeOrSplit(env *mk.Env, pg *page, bp *btPage) (int64, int, error) {
	if btHdrSize+bp.cellBytes() <= PageSize {
		return 0, 0, t.storePage(env, pg, bp)
	}
	// Split: left half stays, right half moves to a fresh page.
	mid := len(bp.cells) / 2
	leftCells := bp.cells[:mid]
	rightCells := bp.cells[mid:]

	var sep int64
	left := &btPage{typ: bp.typ, cells: leftCells}
	right := &btPage{typ: bp.typ, cells: rightCells, rightChild: bp.rightChild}
	if bp.typ == pageLeaf {
		sep = leftCells[len(leftCells)-1].key
	} else {
		// The separator moves up; its child becomes the left page's
		// rightmost.
		sepCell := rightCells[0]
		sep = sepCell.key
		right.cells = rightCells[1:]
		left.rightChild = sepCell.child
	}

	origNo := pg.no
	rightPg, err := t.pager.Allocate(env)
	if err != nil {
		return 0, 0, err
	}
	if err := t.storePage(env, rightPg, right); err != nil {
		return 0, 0, err
	}
	// Re-fetch: Allocate may have recycled the original page's slot.
	pg, err = t.pager.Get(env, origNo)
	if err != nil {
		return 0, 0, err
	}
	if err := t.storePage(env, pg, left); err != nil {
		return 0, 0, err
	}
	return sep, rightPg.no, nil
}

// Delete removes key, reporting whether it existed. Pages are not
// rebalanced (deleted space is reused by later inserts, as in SQLite
// without vacuum).
func (t *Btree) Delete(env *mk.Env, key int64) (bool, error) {
	pg, bp, err := t.descend(env, key)
	if err != nil {
		return false, err
	}
	i, ok := bp.find(key)
	if !ok {
		return false, nil
	}
	bp.cells = slices.Delete(bp.cells, i, i+1)
	return true, t.storePage(env, pg, bp)
}

// ScanFrom walks the tree in key order from the first key >= start,
// calling fn on each cell until fn returns false or an error
// (math.MinInt64 scans the whole tree).
func (t *Btree) ScanFrom(env *mk.Env, start int64, fn func(key int64, value []byte) (bool, error)) error {
	_, err := t.scan(env, t.Root, start, fn)
	return err
}

// scan is ScanFrom over the subtree at page no; it reports whether the
// walk should go on. Children left of the start key hold only smaller
// keys and are skipped. Every child after the first holds only keys above
// start, so its search begins at cell 0, as a whole-tree scan's does.
func (t *Btree) scan(env *mk.Env, no int, start int64, fn func(int64, []byte) (bool, error)) (bool, error) {
	pg, err := t.pager.Get(env, no)
	if err != nil {
		return false, err
	}
	bp, err := parsePage(env, pg)
	if err != nil {
		return false, err
	}
	j := bp.search(start)
	if bp.typ == pageLeaf {
		for _, c := range bp.cells[j:] {
			if more, err := fn(c.key, c.val); err != nil || !more {
				return false, err
			}
		}
		return true, nil
	}
	children := make([]int, 0, len(bp.cells)-j+1)
	for _, c := range bp.cells[j:] {
		children = append(children, c.child)
	}
	children = append(children, bp.rightChild)
	for k, ch := range children {
		// Top up the readahead ring each step: the Get below retires the
		// completion for ch, freeing a slot for a child further ahead.
		if err := t.pager.Prefetch(env, children[k:]); err != nil {
			return false, err
		}
		if more, err := t.scan(env, ch, start, fn); err != nil || !more {
			return false, err
		}
	}
	return true, nil
}

// MaxKey returns the largest key in the tree (0, false if empty). Every
// separator is below math.MaxInt64, so descending toward it takes the
// rightmost child at every level.
func (t *Btree) MaxKey(env *mk.Env) (int64, bool, error) {
	_, bp, err := t.descend(env, math.MaxInt64)
	if err != nil || len(bp.cells) == 0 {
		return 0, false, err
	}
	return bp.cells[len(bp.cells)-1].key, true, nil
}
