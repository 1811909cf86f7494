package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"skybridge/internal/core"
	"skybridge/internal/fs"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/svc"
)

// PageSize is the database page size.
const PageSize = 4096

// cachePages is the pager cache capacity ("the SQLite3 has an internal
// cache to handle the recent read requests, which thus avoids a large
// number of IPC operations" — the reason Table 4's query row speeds up
// least).
const cachePages = 64

// page is a cached database page. Data is authoritative while cached;
// slotVA charges accesses against the client's address space.
type page struct {
	no     int
	data   []byte
	slotVA hw.VA
	dirty  bool
	lru    uint64
	valid  bool
}

// PagerIO selects how the pager routes its FS traffic.
type PagerIO struct {
	// Batch folds each commit's journal-record writes and dirty-page
	// writeback into batched WriteAt crossings, svc.PageBatch to a
	// crossing, instead of one crossing per page.
	Batch bool
	// Async, when non-nil, is a second connection to the FS server with
	// an async submission/completion ring: commit writeback streams
	// through the ring (overlapping page writes with the server applying
	// them), and Prefetch warms the cache ahead of B+tree scans.
	Async *svc.AsyncConn
}

// Pager caches database pages over a file served by the FS, with a
// rollback journal providing transactional atomicity.
type Pager struct {
	fsc     *fs.Client
	io      PagerIO
	fd      uint64
	jname   string
	name    string
	npages  int
	cache   [cachePages]page
	index   map[int]*page
	clock   uint64
	inTx    bool
	journal map[int][]byte // original images of pages dirtied this tx
	// pf lists the page numbers of prefetch reads still in flight on the
	// async ring, in submission order (completions arrive in that order,
	// so pf[0] always names the next completion to install).
	pf []int

	// Stats.
	Hits, Misses uint64
	FsReads      uint64
	FsWrites     uint64
	Prefetches   uint64
}

// OpenPagerIO opens (creating if needed) the database file and its
// journal with IO mode io, rolling back any hot journal left by a crash.
func OpenPagerIO(env *mk.Env, proc *mk.Process, fsc *fs.Client, name string, io PagerIO) (*Pager, error) {
	fd, size, err := fsc.Open(env, name, true)
	if err != nil {
		return nil, err
	}
	p := &Pager{
		fsc:     fsc,
		io:      io,
		fd:      fd,
		name:    name,
		jname:   name + "-journal",
		npages:  int(size) / PageSize,
		index:   make(map[int]*page, cachePages),
		journal: make(map[int][]byte),
	}
	region := proc.Alloc(cachePages * PageSize)
	for i := range p.cache {
		p.cache[i].slotVA = region + hw.VA(i*PageSize)
	}
	if err := p.rollbackHotJournal(env); err != nil {
		return nil, err
	}
	return p, nil
}

// SetIO swaps the pager's IO mode, e.g. to move onto an async ring after
// a load phase. The caller must not swap while ring operations are in
// flight (mid-Prefetch or mid-writeback).
func (p *Pager) SetIO(io PagerIO) { p.io = io }

// NPages returns the current database size in pages.
func (p *Pager) NPages() int { return p.npages }

// Get returns page no, faulting it in from the FS on a miss.
func (p *Pager) Get(env *mk.Env, no int) (*page, error) {
	p.clock++
	if pg, ok := p.index[no]; ok {
		p.Hits++
		pg.lru = p.clock
		env.Compute(15) // cache lookup
		return pg, nil
	}
	p.Misses++
	if p.pfHas(no) {
		// The page is already on its way in: reap ring completions until
		// it lands instead of issuing a duplicate synchronous read.
		if err := p.io.Async.Flush(env); err != nil {
			return nil, err
		}
		for p.pfHas(no) {
			if err := p.reapPrefetch(env, 1); err != nil {
				return nil, err
			}
		}
		if pg, ok := p.index[no]; ok {
			pg.lru = p.clock
			return pg, nil
		}
		// Install dropped the page (every slot dirty): fall through to the
		// synchronous path, which fails the same way a plain miss would.
	}
	victim := p.victim()
	if victim == nil {
		return nil, fmt.Errorf("db: page cache full of dirty pages")
	}
	p.FsReads++
	data, err := p.fsc.ReadAt(env, p.fd, no*PageSize, PageSize)
	if err != nil {
		return nil, err
	}
	p.fill(env, victim, no, data)
	return victim, nil
}

// victim picks the slot a page read fills: a free slot, else the
// least-recently-used clean page (dirty pages are held until commit). It
// returns nil when every slot is dirty.
func (p *Pager) victim() *page {
	var victim *page
	for i := range p.cache {
		pg := &p.cache[i]
		if !pg.valid {
			return pg
		}
		if !pg.dirty && (victim == nil || pg.lru < victim.lru) {
			victim = pg
		}
	}
	return victim
}

// fill caches data, zero-padded to a page, as page no in slot pg and
// charges the write of the whole slot.
func (p *Pager) fill(env *mk.Env, pg *page, no int, data []byte) {
	if pg.valid {
		delete(p.index, pg.no)
	}
	pg.data = append(pg.data[:0], data...)
	if pad := PageSize - len(data); pad > 0 {
		pg.data = append(pg.data, make([]byte, pad)...)
	}
	pg.no, pg.dirty, pg.valid, pg.lru = no, false, true, p.clock
	p.index[no] = pg
	env.Write(pg.slotVA, nil, PageSize)
}

// read charges and returns n bytes at off of the page.
func (pg *page) read(env *mk.Env, off, n int) []byte {
	env.Read(pg.slotVA+hw.VA(off), nil, n)
	return pg.data[off : off+n]
}

// Write modifies a page inside the current transaction, journaling its
// original image first.
func (p *Pager) Write(env *mk.Env, pg *page, off int, data []byte) error {
	if !p.inTx {
		return fmt.Errorf("db: page write outside transaction")
	}
	if _, ok := p.journal[pg.no]; !ok {
		p.journal[pg.no] = append([]byte(nil), pg.data...)
	}
	env.Write(pg.slotVA+hw.VA(off), nil, len(data))
	copy(pg.data[off:], data)
	pg.dirty = true
	return nil
}

// Allocate appends a fresh zeroed page to the database inside the current
// transaction and returns it.
func (p *Pager) Allocate(env *mk.Env) (*page, error) {
	if !p.inTx {
		return nil, fmt.Errorf("db: allocate outside transaction")
	}
	no := p.npages
	p.npages++
	pg, err := p.Get(env, no)
	if err != nil {
		return nil, err
	}
	for i := range pg.data {
		pg.data[i] = 0
	}
	p.journal[no] = nil // newly allocated: rollback just shrinks the file
	pg.dirty = true
	env.Write(pg.slotVA, nil, PageSize)
	return pg, nil
}

// Begin opens a transaction.
func (p *Pager) Begin() error {
	if p.inTx {
		return fmt.Errorf("db: nested transaction")
	}
	p.inTx = true
	return nil
}

// InTx reports whether a transaction is open.
func (p *Pager) InTx() bool { return p.inTx }

// Commit writes the journal (making the transaction durable-or-invisible),
// flushes the dirty pages to the database file, and clears the journal —
// the classic SQLite rollback-journal protocol.
func (p *Pager) Commit(env *mk.Env) error {
	if !p.inTx {
		return fmt.Errorf("db: commit outside transaction")
	}
	p.inTx = false
	if p.io.Async != nil {
		// The commit's ring traffic (async writeback) pairs completions
		// with its own submissions; in-flight prefetch reads must retire
		// first.
		if err := p.drainPrefetch(env); err != nil {
			return err
		}
	}
	if len(p.journal) == 0 {
		return nil
	}
	// 1. Journal file: original page images in page-number order, then
	// the header that commits them.
	jfd, _, err := p.fsc.Open(env, p.jname, true)
	if err != nil {
		return err
	}
	nos := p.restorable()
	offs := make([]int, 0, len(nos)+1)
	datas := make([][]byte, 0, len(nos)+1)
	off := PageSize
	for _, no := range nos {
		rec := make([]byte, 8+PageSize)
		binary.LittleEndian.PutUint64(rec, uint64(no))
		copy(rec[8:], p.journal[no])
		offs = append(offs, off)
		datas = append(datas, rec)
		off += len(rec)
	}
	hdr := make([]byte, 16)
	binary.LittleEndian.PutUint64(hdr, journalMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(nos)))
	offs = append(offs, 0)
	datas = append(datas, hdr)
	if err := p.fsc.WriteAtBatch(env, jfd, p.width(), offs, datas); err != nil {
		return err
	}
	if err := p.fsc.Fsync(env); err != nil {
		return err
	}
	// 2. Write dirty pages home.
	if err := p.writeback(env); err != nil {
		return err
	}
	if err := p.fsc.Fsync(env); err != nil {
		return err
	}
	// 3. Invalidate the journal.
	if err := p.fsc.Truncate(env, jfd); err != nil {
		return err
	}
	p.journal = make(map[int][]byte)
	return nil
}

// width is how many of a commit's FS writes share one crossing.
func (p *Pager) width() int {
	if p.io.Batch {
		return svc.PageBatch
	}
	return 1
}

// writeback flushes every dirty cached page to the database file, through
// the async ring or p.width() pages to a crossing.
func (p *Pager) writeback(env *mk.Env) error {
	if p.io.Async != nil {
		return p.writebackAsync(env)
	}
	var offs [cachePages]int
	var datas [cachePages][]byte
	n := 0
	for i := range p.cache {
		if pg := &p.cache[i]; pg.valid && pg.dirty {
			offs[n], datas[n] = pg.no*PageSize, pg.data
			pg.dirty = false
			n++
		}
	}
	p.FsWrites += uint64(n)
	return p.fsc.WriteAtBatch(env, p.fd, p.width(), offs[:n], datas[:n])
}

// writebackAsync streams the dirty pages through the submission ring,
// keeping up to queue-depth writes in flight so the FS server applies
// earlier pages while the client stages later ones. All completions are
// reaped before returning — the caller's Fsync must order after every
// write.
func (p *Pager) writebackAsync(env *mk.Env) error {
	ac := p.io.Async
	pending := 0
	check := func(resps []svc.Resp) error {
		pending -= len(resps)
		for _, r := range resps {
			if r.Status != fs.StatusOK {
				return fmt.Errorf("db: async writeback failed: status %d", r.Status)
			}
		}
		return nil
	}
	for i := range p.cache {
		pg := &p.cache[i]
		if !pg.valid || !pg.dirty {
			continue
		}
		p.FsWrites++
		req := svc.Req{Op: fs.OpWrite, Args: [3]uint64{p.fd, uint64(pg.no * PageSize)}, Data: pg.data}
		for {
			err := ac.Submit(env, req)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrRingFull) {
				return err
			}
			if err := ac.Flush(env); err != nil {
				return err
			}
			resps, err := ac.Reap(env, 1)
			if err != nil {
				return err
			}
			if err := check(resps); err != nil {
				return err
			}
		}
		pending++
		pg.dirty = false
	}
	if pending > 0 {
		if err := ac.Flush(env); err != nil {
			return err
		}
		resps, err := ac.Reap(env, pending)
		if err != nil {
			return err
		}
		if err := check(resps); err != nil {
			return err
		}
	}
	return nil
}

// prefetchWindow bounds one Prefetch call: readahead past the next few
// pages evicts more of the cache than the scan will get back (a B+tree
// interior node can list far more children than a bounded scan visits).
const prefetchWindow = 8

// Prefetch starts warming the cache with the given pages through the
// async ring and returns with the reads still in flight: the caller keeps
// scanning already-cached pages while the FS server fills the ring, and
// Get reaps a prefetched page the moment it is actually needed. Pages
// already cached, already in flight, or beyond the file are skipped, and
// at most prefetchWindow pages are fetched; fetched pages that find no
// clean cache slot are dropped. A no-op without an async ring, so B+tree
// scans can call it unconditionally.
func (p *Pager) Prefetch(env *mk.Env, nos []int) error {
	ac := p.io.Async
	if ac == nil {
		return nil
	}
	submitted := 0
	for _, no := range nos {
		if len(p.pf) >= prefetchWindow {
			break
		}
		if _, ok := p.index[no]; ok {
			continue
		}
		if no < 0 || no >= p.npages || p.pfHas(no) {
			continue
		}
		err := ac.Submit(env, svc.Req{Op: fs.OpRead, Args: [3]uint64{p.fd, uint64(no * PageSize), PageSize}})
		if errors.Is(err, core.ErrRingFull) {
			// Readahead fills free ring slots and never blocks: stalling
			// the scan to make room would serialize it on exactly the
			// latency prefetch exists to hide. The next Prefetch (or a Get
			// reaping on demand) tops the ring back up.
			break
		}
		if err != nil {
			return err
		}
		p.Prefetches++
		p.pf = append(p.pf, no)
		submitted++
	}
	if submitted > 0 {
		// Publish the tail (a doorbell only if the server's poll loop went
		// to sleep); the reaps happen on demand in Get or drainPrefetch.
		return ac.Flush(env)
	}
	return nil
}

// reapPrefetch reaps at least minN in-flight prefetch completions and
// installs them. Completions arrive in submission order, so they pair
// with p.pf positionally.
func (p *Pager) reapPrefetch(env *mk.Env, minN int) error {
	resps, err := p.io.Async.Reap(env, minN)
	if err != nil {
		return err
	}
	for _, r := range resps {
		no := p.pf[0]
		p.pf = p.pf[1:]
		if r.Status != fs.StatusOK {
			return fmt.Errorf("db: prefetch page %d: status %d", no, r.Status)
		}
		p.installPage(env, no, r.Data)
	}
	return nil
}

// drainPrefetch retires every in-flight prefetch read. Ring users that
// pair completions with their own submissions positionally (async
// writeback) must drain first, and so must anything that orders against
// reads (commit).
func (p *Pager) drainPrefetch(env *mk.Env) error {
	if len(p.pf) == 0 {
		return nil
	}
	if err := p.io.Async.Flush(env); err != nil {
		return err
	}
	for len(p.pf) > 0 {
		if err := p.reapPrefetch(env, len(p.pf)); err != nil {
			return err
		}
	}
	return nil
}

// pfHas reports whether page no has a prefetch read in flight.
func (p *Pager) pfHas(no int) bool {
	for _, v := range p.pf {
		if v == no {
			return true
		}
	}
	return false
}

// installPage caches a prefetched page image in the victim slot. Under
// pressure (every slot dirty) the prefetch is dropped rather than
// displacing transaction state.
func (p *Pager) installPage(env *mk.Env, no int, data []byte) {
	if _, ok := p.index[no]; ok {
		return
	}
	p.clock++
	if victim := p.victim(); victim != nil {
		p.fill(env, victim, no, data)
	}
}

// Rollback discards the transaction's in-memory changes.
func (p *Pager) Rollback(env *mk.Env) error {
	if !p.inTx {
		return fmt.Errorf("db: rollback outside transaction")
	}
	p.inTx = false
	for _, no := range p.restorable() {
		if pg, ok := p.index[no]; ok {
			copy(pg.data, p.journal[no])
			env.Write(pg.slotVA, nil, PageSize)
			pg.dirty = false
		}
	}
	// Pages allocated this tx disappear.
	for no, orig := range p.journal {
		if orig != nil {
			continue
		}
		if pg, ok := p.index[no]; ok {
			pg.valid, pg.dirty = false, false
			delete(p.index, no)
		}
		p.npages = min(p.npages, no)
	}
	p.journal = make(map[int][]byte)
	return nil
}

// restorable returns the pages whose original images the open
// transaction journaled, in page-number order: the journal map's
// iteration order must not reach the journal file's layout, the batched
// submission order or the cache model.
func (p *Pager) restorable() []int {
	nos := make([]int, 0, len(p.journal))
	for no, orig := range p.journal {
		if orig != nil { // nil: the page is fresh, nothing to restore
			nos = append(nos, no)
		}
	}
	sort.Ints(nos)
	return nos
}

const journalMagic = 0x5B_1C_CAFE

// rollbackHotJournal applies a leftover journal (crash between journal
// write and commit completion).
func (p *Pager) rollbackHotJournal(env *mk.Env) error {
	jfd, size, err := p.fsc.Open(env, p.jname, true)
	if err != nil {
		return err
	}
	if size < 16 {
		return nil
	}
	h, err := p.fsc.ReadAt(env, jfd, 0, 16)
	if err != nil {
		return err
	}
	if binary.LittleEndian.Uint64(h) != journalMagic {
		return nil
	}
	cnt := int(binary.LittleEndian.Uint64(h[8:]))
	off := PageSize
	for i := 0; i < cnt; i++ {
		rec, err := p.fsc.ReadAt(env, jfd, off, 8+PageSize)
		if err != nil {
			return err
		}
		if len(rec) < 8+PageSize {
			break
		}
		no := int(binary.LittleEndian.Uint64(rec))
		if err := p.fsc.WriteAt(env, p.fd, no*PageSize, rec[8:8+PageSize]); err != nil {
			return err
		}
		off += 8 + PageSize
	}
	return p.fsc.Truncate(env, jfd)
}
