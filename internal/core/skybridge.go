// Package core implements SkyBridge itself: the kernel-less synchronous
// IPC facility of the paper. A client registered to a server invokes the
// server's handler *directly*, on its own thread and scheduling quantum,
// by executing VMFUNC in user mode: the EPTP switch makes the hardware
// translate all subsequent virtual addresses through the server's page
// table (the Rootkernel remapped the client's CR3 GPA, §4.3), so no
// syscall, no scheduler, and no CR3 write appear anywhere on the path.
//
// The package implements the full §4 design:
//
//   - register_server / register_client_to_server / direct_server_call
//     (Figure 4's programming model);
//   - the trampoline (§4.4): register save/restore, shared-buffer copy for
//     long messages, VMFUNC, server stack installation, with per-step cycle
//     charging calibrated to the paper's 396-cycle round trip;
//   - per-process calling-key tables defending against illegal server
//     calls and illegal client returns, with the keys held in simulated
//     memory and checked with charged reads;
//   - per-connection shared buffers bound to server threads;
//   - binary scanning/rewriting of every registering process's code pages
//     (via internal/rewrite), closing the VMFUNC-faking attack;
//   - the timeout mechanism against denial-of-service servers (§7).
package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"skybridge/internal/hv"
	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/obs"
	"skybridge/internal/rewrite"
	"skybridge/internal/sim"
)

// Architected virtual addresses.
const (
	// TrampolineVA is where the trampoline code page is mapped in every
	// registered process.
	TrampolineVA hw.VA = 0x20_0000
	// RewritePageVA is the rewriting page (second page of the address
	// space, §5.1).
	RewritePageVA hw.VA = hw.VA(rewrite.DefaultRewriteBase)
	// KeyTableVA is where a server's calling-key table page is mapped.
	KeyTableVA hw.VA = 0x21_0000
	// FuncListVA is where the server function list is mapped in clients.
	FuncListVA hw.VA = 0x22_0000
	// keyTableBigVA is where multi-page calling-key tables are mapped
	// (servers whose maxConns exceed the 512 keys of a single page —
	// e.g. a multi-tenant frontend). Single-page tables keep the
	// architected KeyTableVA slots; big tables allocate contiguously from
	// this region via a per-process cursor, far from text, heap, and the
	// architected pages.
	keyTableBigVA hw.VA = 0x3000_0000
)

// keysPerPage is how many 8-byte calling keys one table page holds.
const keysPerPage = hw.PageSize / 8

// Trampoline cost constants (cycles), calibrated so that a warm direct
// call round trip costs ~396 cycles: 2x VMFUNC (134 each) plus 2x ~64
// cycles of "all other operations, such as saving and restoring register
// values and installing the target stack" (§6.3).
const (
	costSaveRegs     = 40
	costRestoreRegs  = 30
	costInstallStack = 22
)

// Errors.
var (
	ErrBadKey        = errors.New("core: calling key rejected")
	ErrNoSuchServer  = errors.New("core: unknown server id")
	ErrConnLimit     = errors.New("core: server connection limit reached")
	ErrTimeout       = errors.New("core: direct call timed out")
	ErrReturnKey     = errors.New("core: client return-key mismatch")
	ErrNotRegistered = errors.New("core: process not registered to server")
)

// Handler is a server's registered function. env is a direct Env in the
// server's address space on the caller's thread; req.SharedBuf points at
// the connection's shared buffer in server VAs. env is valid only until
// the handler returns: the trampoline refills the same Env on the
// thread's next crossing at this call depth, so a handler must not keep
// the pointer.
type Handler func(env *mk.Env, req Request) Response

// Request is the argument set of a direct server call.
type Request struct {
	Regs [4]uint64
	// Buf/Len locate a long payload in the *caller's* address space; the
	// trampoline copies it into the connection's shared buffer.
	Buf hw.VA
	Len int
	// Cap, when non-zero, is the reply payload capacity the caller expects
	// back. Batched calls size their ring slots from max(Len, Cap) so a
	// request with a small (or empty) payload can still receive a large
	// reply — e.g. a batched block read. Ignored by unbatched DirectCall,
	// whose replies use the whole shared buffer.
	Cap int
	// SharedBuf (set by the trampoline) is the server-side VA of the
	// connection's shared buffer holding the payload.
	SharedBuf hw.VA
}

// Response is the result of a direct server call. A long reply is written
// by the server into the shared buffer (at req.SharedBuf); Len tells the
// client how much to read back.
type Response struct {
	Regs [4]uint64
	Len  int
}

// Server is a registered SkyBridge server.
type Server struct {
	ID       int // global EPTP-list index, assigned by the Rootkernel
	Proc     *mk.Process
	Handler  Handler
	MaxConns int

	// FuncAddr is the registered handler address inside the server (the
	// trampoline "calls the server's registered function according to the
	// server ID").
	FuncAddr hw.VA

	// keyTableVAServer holds the calling-key table page (server VA space).
	keyTable hw.VA
	conns    []*Connection

	// Stats.
	Calls    uint64
	Rejected uint64
}

// Connection binds one client registration to a server: a dedicated server
// stack and a shared buffer mapped into both processes.
type Connection struct {
	Server *Server
	Client *mk.Process

	// ServerKey is the key the client presents on every call; it lives in
	// the server's calling-key table.
	ServerKey uint64

	// Shared buffer, mapped in both address spaces.
	BufFrames []hw.GPA
	ClientBuf hw.VA
	ServerBuf hw.VA
	BufLen    int

	// Stack is the server-side stack for this connection's calls.
	Stack hw.VA

	slot int // index in the server's key table
}

// SkyBridge ties a Subkernel and Rootkernel together into the IPC facility.
type SkyBridge struct {
	K  *mk.Kernel
	RK *hv.Rootkernel

	servers map[int]*Server
	// ringServers[serverID] is the asynchronous poll loop attached to a
	// server, if any (asyncring.go).
	ringServers map[int]*RingServer
	// frontends[serverID] is the multi-tenant directory drain attached to
	// a server, if any (mpsc.go).
	frontends map[int]*Frontend
	// bindings[client] lists the servers the client registered to.
	bindings map[*mk.Process]map[int]*Connection
	// tc holds each thread's direct-call chain state (threadCtx), created
	// at the thread's first crossing and reused for every later one.
	tc map[*sim.Thread]*threadCtx
	// rec is the scratch CallRecord every crossing fills and publishes to
	// Calls; observers copy what they keep.
	rec obs.CallRecord

	rng *rand.Rand

	// FlushTLBOnSwitch models hardware without VPID tagging: every EPTP
	// switch flushes the TLBs. It exists only as the ablation baseline for
	// the VPID-tagged design (Table 2's 134-cycle VMFUNC depends on VPID).
	FlushTLBOnSwitch bool

	// Rewrites counts processes whose code was scanned and rewritten.
	Rewrites int
	// DirectCalls counts completed direct server calls (each request of a
	// batch counts as one call).
	DirectCalls uint64
	// BatchCalls counts batched crossings (DirectCallBatch with 2+
	// requests): one trampoline round trip serving several calls.
	BatchCalls uint64
	// RingOps counts requests served through asynchronous rings (no
	// crossing per request; see asyncring.go).
	RingOps uint64
	// RingDoorbells counts doorbell crossings taken; RingDoorbellsSkipped
	// counts flushes that found the server awake and crossed nothing.
	RingDoorbells        uint64
	RingDoorbellsSkipped uint64

	// Calls, when non-nil, receives one phase-attribution record per
	// completed sync, batch, and async call (observability layer; see
	// obs.CallObserver). Nil costs one pointer test per call.
	Calls *obs.CallObserver

	// ringSeq numbers opened rings in creation order; it seeds the
	// deterministic flow IDs of async submissions.
	ringSeq uint32
}

// New creates the SkyBridge facility over a booted Rootkernel.
func New(k *mk.Kernel, rk *hv.Rootkernel) *SkyBridge {
	sb := &SkyBridge{
		K:           k,
		RK:          rk,
		servers:     make(map[int]*Server),
		ringServers: make(map[int]*RingServer),
		frontends:   make(map[int]*Frontend),
		bindings:    make(map[*mk.Process]map[int]*Connection),
		tc:          make(map[*sim.Thread]*threadCtx),
		rng:         rand.New(rand.NewSource(0x5B)), // deterministic key stream
	}
	k.Mach.Obs.Bind("core.direct_calls", &sb.DirectCalls)
	k.Mach.Obs.Bind("core.batch_calls", &sb.BatchCalls)
	k.Mach.Obs.Bind("core.ring_ops", &sb.RingOps)
	k.Mach.Obs.Bind("core.ring_doorbells", &sb.RingDoorbells)
	k.Mach.Obs.Bind("core.ring_doorbells_skipped", &sb.RingDoorbellsSkipped)
	return sb
}

// threadCtx is one thread's direct-call chain state. It lives as long as
// the thread: a chain is open while stack is deeper than its root slot,
// and every crossing that finds no chain open starts a new one (chain).
type threadCtx struct {
	// proc is the chain's EPT-context process: the top-level client whose
	// EPTP list and CR3 stay live while the chain crosses views.
	proc *mk.Process
	// stack holds the hardware slots the chain switched through: stack[0]
	// is the root view, stack[len-1] the current one. It doubles as the
	// pin set for LRU slot eviction (eptplru.go).
	stack []int
	// envs[d-1] is the server Env handed out at depth d, refilled in
	// place by every crossing to that depth.
	envs []*mk.Env
}

// chain returns the chain state of env's thread, starting a chain with
// env's process as its context when none is open.
func (sb *SkyBridge) chain(env *mk.Env) *threadCtx {
	tc := sb.tc[env.T]
	if tc == nil {
		tc = &threadCtx{stack: []int{0}}
		sb.tc[env.T] = tc
	}
	if len(tc.stack) == 1 {
		tc.proc = env.P
	}
	return tc
}

// push records the switch into slot and returns the server Env for the
// new depth, filled in place for server process p.
func (tc *threadCtx) push(env *mk.Env, slot int, p *mk.Process) *mk.Env {
	tc.stack = append(tc.stack, slot)
	d := len(tc.stack) - 1
	if d > len(tc.envs) {
		tc.envs = append(tc.envs, new(mk.Env))
	}
	return env.DirectEnv(p, tc.envs[d-1])
}

// prepareProcess maps the trampoline, scans and rewrites the process's code
// pages, and maps the rewriting page. Idempotent per process.
func (sb *SkyBridge) prepareProcess(p *mk.Process) error {
	if p.Ext != nil {
		return nil
	}
	// Map the trampoline code page (real x86 bytes; see trampoline.go).
	tramp := TrampolineCode()
	frame := sb.K.Mach.Mem.MustAllocFrame()
	sb.K.Mach.Mem.Write(frame, tramp)
	p.MapAt(TrampolineVA, []hw.GPA{hw.GPA(frame)}, hw.PTEUser)

	// Scan and rewrite the process's own code (§5): after this, the only
	// executable VMFUNC bytes in the process are the trampoline's.
	if err := sb.scanAndRewrite(p); err != nil {
		return err
	}
	p.Ext = &procExt{}
	return nil
}

// scanAndRewrite neutralizes every VMFUNC byte pattern in p's mapped text,
// installing (or replacing) the rewriting page as needed.
func (sb *SkyBridge) scanAndRewrite(p *mk.Process) error {
	if p.CodeSize == 0 {
		return nil
	}
	rw := rewrite.New(uint64(p.CodeBase))
	res, err := rw.Rewrite(p.ReadCode())
	if err != nil {
		return fmt.Errorf("core: rewriting %s: %w", p.Name, err)
	}
	p.WriteCode(res.Code)
	if len(res.RewritePage) > 0 {
		rpFrame := sb.K.Mach.Mem.MustAllocFrame()
		sb.K.Mach.Mem.Write(rpFrame, res.RewritePage)
		p.MapAt(RewritePageVA, []hw.GPA{hw.GPA(rpFrame)}, hw.PTEUser)
	}
	sb.Rewrites++
	return nil
}

// RemapCodePages implements the §9 W⊕X discipline for dynamic code: a
// registered process that generated code (a JIT, a live updater) writes it
// while the pages are non-executable, then asks the Subkernel to remap
// them executable. The Subkernel rescans and rewrites the new text before
// granting execute permission, so dynamically generated VMFUNCs are
// neutralized exactly like static ones.
func (sb *SkyBridge) RemapCodePages(env *mk.Env, newCode []byte) error {
	p := env.P
	if p.Ext == nil {
		return fmt.Errorf("core: %s is not registered with SkyBridge", p.Name)
	}
	cpu := env.T.Core
	cpu.Syscall()
	cpu.Swapgs()
	defer func() { cpu.Swapgs(); cpu.Sysret() }()
	// Remap + rescan cost, proportional to the new text size (§9 suggests
	// batching to amortize this; we charge the unbatched cost).
	cpu.Tick(uint64(len(newCode) / 8))
	p.MapCode(newCode)
	return sb.scanAndRewrite(p)
}

type procExt struct {
	// ktNext is the process's allocation cursor for multi-page calling-key
	// tables (keyTableBigVA region).
	ktNext hw.VA
}

// RegisterServer implements register_server (Figure 4): the server provides
// a handler (and its address) plus the maximum number of connections; the
// kernel maps trampoline and stack pages, rewrites the binary, and the
// Rootkernel assigns the server's global EPTP index, which doubles as the
// server ID.
func (sb *SkyBridge) RegisterServer(env *mk.Env, maxConns int, funcAddr hw.VA, handler Handler) (int, error) {
	p := env.P
	if err := sb.prepareProcess(p); err != nil {
		return 0, err
	}
	// Registration is a syscall.
	cpu := env.T.Core
	cpu.Syscall()
	cpu.Swapgs()
	defer func() { cpu.Swapgs(); cpu.Sysret() }()
	// Scanning cost is proportional to code size (off the IPC path).
	cpu.Tick(uint64(p.CodeSize / 8))

	id, err := sb.RK.RegisterServer(cpu, p)
	if err != nil {
		return 0, err
	}
	// Key table, mapped user-read-only into the server (the server's
	// trampoline checks keys against it; only the kernel writes it). One
	// page holds 512 keys; a server admitting more connections than that
	// (a multi-tenant frontend) gets a contiguous multi-page table from
	// the keyTableBigVA region — slot 512+ would otherwise write past the
	// single architected frame into foreign memory.
	pages := (maxConns*8 + hw.PageSize - 1) / hw.PageSize
	if pages < 1 {
		pages = 1
	}
	ktBase := KeyTableVA + hw.VA((id-1)*hw.PageSize)
	if pages > 1 {
		ext := p.Ext.(*procExt)
		if ext.ktNext == 0 {
			ext.ktNext = keyTableBigVA
		}
		ktBase = ext.ktNext
		ext.ktNext += hw.VA((pages + 1) * hw.PageSize) // one-page guard gap
	}
	frames := make([]hw.GPA, pages)
	for i := range frames {
		frames[i] = hw.GPA(sb.K.Mach.Mem.MustAllocFrame())
	}
	p.MapAt(ktBase, frames, hw.PTEUser)

	srv := &Server{
		ID:       id,
		Proc:     p,
		Handler:  handler,
		MaxConns: maxConns,
		FuncAddr: funcAddr,
		keyTable: ktBase,
	}
	sb.servers[id] = srv
	return id, nil
}

// RegisterClient implements register_client_to_server: maps trampoline and
// function-list pages into the client, rewrites its code, asks the
// Rootkernel to bind client and server at the EPT level (and every server
// the target server itself depends on), creates the connection's shared
// buffer and server stack, and issues the calling key.
func (sb *SkyBridge) RegisterClient(env *mk.Env, serverID int) (*Connection, error) {
	p := env.P
	srv, ok := sb.servers[serverID]
	if !ok {
		return nil, ErrNoSuchServer
	}
	if len(srv.conns) >= srv.MaxConns {
		return nil, ErrConnLimit
	}
	if err := sb.prepareProcess(p); err != nil {
		return nil, err
	}
	cpu := env.T.Core
	cpu.Syscall()
	cpu.Swapgs()
	defer func() { cpu.Swapgs(); cpu.Sysret() }()
	cpu.Tick(uint64(p.CodeSize / 8))

	// Bind at the EPT level: the target server and, transitively, every
	// server it is itself a client of ("the Rootkernel also writes all
	// processes' EPTPs that the server depends on into the client's EPTP
	// list", §4.2).
	for _, dep := range sb.dependencyClosure(srv) {
		if _, err := sb.RK.Bind(cpu, p, dep.Proc, dep.ID); err != nil {
			return nil, err
		}
	}
	if err := sb.RK.InstallFor(cpu, p); err != nil {
		return nil, err
	}

	// Shared buffer: one page pair per connection, mapped in both.
	const bufPages = 4
	frames := make([]hw.GPA, bufPages)
	for i := range frames {
		frames[i] = hw.GPA(sb.K.Mach.Mem.MustAllocFrame())
	}
	conn := &Connection{
		Server:    srv,
		Client:    p,
		ServerKey: sb.rng.Uint64(),
		BufFrames: frames,
		ClientBuf: p.MapFrames(frames, hw.PTEUser|hw.PTEWrite),
		ServerBuf: srv.Proc.MapFrames(frames, hw.PTEUser|hw.PTEWrite),
		BufLen:    bufPages * hw.PageSize,
		Stack:     srv.Proc.AllocStack(4 * hw.PageSize),
		slot:      len(srv.conns),
	}
	// Write the key into the server's calling-key table (kernel-side write
	// through physical memory). The table may span pages, and frames are
	// not physically contiguous: walk the page the slot lands on, then
	// offset within that frame.
	ktPage := srv.keyTable + hw.VA((conn.slot/keysPerPage)*hw.PageSize)
	ktGPA, _, okWalk := srv.Proc.PT.Walk(ktPage)
	if !okWalk {
		return nil, fmt.Errorf("core: server key table unmapped")
	}
	writeU64Phys(sb.K.Mach.Mem, hw.HPA(ktGPA)+hw.HPA(8*(conn.slot%keysPerPage)), conn.ServerKey)

	srv.conns = append(srv.conns, conn)
	if sb.bindings[p] == nil {
		sb.bindings[p] = make(map[int]*Connection)
	}
	sb.bindings[p][serverID] = conn
	return conn, nil
}

// dependencyClosure returns srv plus every server reachable through srv's
// own client registrations, depth first and each server's dependencies in
// ID order, so a client binds them into the same EPTP slots every run.
func (sb *SkyBridge) dependencyClosure(srv *Server) []*Server {
	seen := map[int]bool{}
	var out []*Server
	var walk func(s *Server)
	walk = func(s *Server) {
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		out = append(out, s)
		ids := make([]int, 0, len(sb.bindings[s.Proc]))
		for id := range sb.bindings[s.Proc] {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			if dep, ok := sb.servers[id]; ok {
				walk(dep)
			}
		}
	}
	walk(srv)
	return out
}

// Connection lookup for a process.
func (sb *SkyBridge) ConnectionOf(p *mk.Process, serverID int) (*Connection, bool) {
	c, ok := sb.bindings[p][serverID]
	return c, ok
}

// Server returns a registered server by ID.
func (sb *SkyBridge) Server(id int) (*Server, bool) {
	s, ok := sb.servers[id]
	return s, ok
}

func writeU64Phys(mem *hw.PhysMem, at hw.HPA, v uint64) {
	mem.WriteU64(at, v)
}
