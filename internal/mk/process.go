package mk

import (
	"fmt"

	"skybridge/internal/hw"
	"skybridge/internal/sim"
)

// Process is a user process: its own page table (virtual address space),
// capability table, and threads. SkyBridge-specific state (trampoline,
// calling keys, EPT bindings) is attached by internal/core via the Ext
// field.
type Process struct {
	PID  int
	Name string
	PT   *hw.PageTable
	PCID uint16

	kernel *Kernel

	heapNext  hw.VA
	stackNext hw.VA

	// Caps is the process's capability table: the endpoints it may invoke.
	Caps map[*Endpoint]bool

	// CodeBase/CodeSize describe the process's mapped text, which the
	// SkyBridge registration path scans and rewrites.
	CodeBase hw.VA
	CodeSize int

	// Ext carries SkyBridge per-process state (owned by internal/core).
	Ext any
}

// NewProcess creates a process with the kernel footprint mapped.
func (k *Kernel) NewProcess(name string) *Process {
	k.nextPID++
	p := &Process{
		PID:       k.nextPID,
		Name:      name,
		PT:        hw.NewPageTable(k.Mach.Mem),
		PCID:      uint16(k.nextPID),
		kernel:    k,
		heapNext:  UserHeapBase,
		stackNext: UserStackTop,
		Caps:      make(map[*Endpoint]bool),
	}
	k.mapKernelInto(p.PT)
	k.procs = append(k.procs, p)
	if k.OnProcessCreate != nil {
		k.OnProcessCreate(p)
	}
	return p
}

// Kernel returns the owning kernel.
func (p *Process) Kernel() *Kernel { return p.kernel }

// Alloc maps n fresh zeroed bytes (page-granular) into the process heap and
// returns their base VA.
func (p *Process) Alloc(n int) hw.VA {
	pages := (n + hw.PageSize - 1) / hw.PageSize
	base := p.heapNext
	for i := 0; i < pages; i++ {
		frame := p.kernel.Mach.Mem.MustAllocFrame()
		if err := p.PT.Map(p.heapNext, hw.GPA(frame), hw.PTEWrite|hw.PTEUser); err != nil {
			panic(err)
		}
		p.heapNext += hw.PageSize
	}
	return base
}

// AllocStack maps a stack region of n bytes and returns its top VA.
func (p *Process) AllocStack(n int) hw.VA {
	pages := (n + hw.PageSize - 1) / hw.PageSize
	top := p.stackNext
	for i := 1; i <= pages; i++ {
		frame := p.kernel.Mach.Mem.MustAllocFrame()
		if err := p.PT.Map(top-hw.VA(i*hw.PageSize), hw.GPA(frame), hw.PTEWrite|hw.PTEUser); err != nil {
			panic(err)
		}
	}
	p.stackNext -= hw.VA((pages + 8) * hw.PageSize) // guard gap
	return top
}

// MapCode maps code bytes at UserTextBase with user+exec permissions and
// records the text range.
func (p *Process) MapCode(code []byte) hw.VA {
	pages := (len(code) + hw.PageSize - 1) / hw.PageSize
	if pages == 0 {
		pages = 1
	}
	for i := 0; i < pages; i++ {
		frame := p.kernel.Mach.Mem.MustAllocFrame()
		if err := p.PT.Map(UserTextBase+hw.VA(i*hw.PageSize), hw.GPA(frame), hw.PTEUser); err != nil {
			panic(err)
		}
		end := (i + 1) * hw.PageSize
		if end > len(code) {
			end = len(code)
		}
		if i*hw.PageSize < len(code) {
			p.kernel.Mach.Mem.Write(frame, code[i*hw.PageSize:end])
		}
	}
	p.CodeBase = UserTextBase
	p.CodeSize = len(code)
	return UserTextBase
}

// ReadCode reads the process's mapped text back out (kernel-side, uncharged:
// the scanner runs at registration time, off the IPC path).
func (p *Process) ReadCode() []byte {
	buf := make([]byte, p.CodeSize)
	for off := 0; off < p.CodeSize; off += hw.PageSize {
		gpa, _, ok := p.PT.Walk(p.CodeBase + hw.VA(off))
		if !ok {
			panic("mk: unmapped code page")
		}
		end := off + hw.PageSize
		if end > p.CodeSize {
			end = p.CodeSize
		}
		p.kernel.Mach.Mem.Read(hw.HPA(gpa), buf[off:end])
	}
	return buf
}

// WriteCode overwrites the process's text in place (used by the rewriter).
func (p *Process) WriteCode(code []byte) {
	if len(code) != p.CodeSize {
		panic("mk: WriteCode length mismatch")
	}
	for off := 0; off < len(code); off += hw.PageSize {
		gpa, _, ok := p.PT.Walk(p.CodeBase + hw.VA(off))
		if !ok {
			panic("mk: unmapped code page")
		}
		end := off + hw.PageSize
		if end > len(code) {
			end = len(code)
		}
		p.kernel.Mach.Mem.Write(hw.HPA(gpa), code[off:end])
	}
}

// Grant adds an endpoint capability to the process.
func (p *Process) Grant(ep *Endpoint) { p.Caps[ep] = true }

// MapFrames maps existing frames (e.g. a SkyBridge shared buffer) into the
// process heap and returns the base VA.
func (p *Process) MapFrames(frames []hw.GPA, flags hw.PTFlags) hw.VA {
	base := p.heapNext
	for _, f := range frames {
		if err := p.PT.Map(p.heapNext, f, flags); err != nil {
			panic(err)
		}
		p.heapNext += hw.PageSize
	}
	return base
}

// MapAt maps existing frames at a fixed VA (trampoline and rewriting pages
// live at architected addresses).
func (p *Process) MapAt(va hw.VA, frames []hw.GPA, flags hw.PTFlags) {
	for i, f := range frames {
		if err := p.PT.Map(va+hw.VA(i*hw.PageSize), f, flags); err != nil {
			panic(err)
		}
	}
}

// Env is the execution context handed to simulated application code: a sim
// thread running inside a process on a specific core. All memory operations
// are charged through the hardware model under the process's address space.
type Env struct {
	T *sim.Thread
	P *Process
	K *Kernel

	// direct marks an Env created by a SkyBridge direct call: the thread
	// reached P's address space by switching EPTs in user mode, CR3 (and
	// the kernel's notion of the current process) still belong to the
	// original client, and memory operations must not trigger a kernel
	// context switch.
	direct bool
}

// DirectEnv fills dst with the Env a SkyBridge trampoline hands to a
// server handler (same thread and core, server process, no kernel
// involvement) and returns it. The trampoline owns dst and refills it on
// its next crossing at the same call depth.
func (e *Env) DirectEnv(p *Process, dst *Env) *Env {
	*dst = Env{T: e.T, P: p, K: e.K, direct: true}
	return dst
}

// Spawn starts a thread of process p on the given core.
func (p *Process) Spawn(name string, core *hw.CPU, body func(env *Env)) *sim.Thread {
	return p.kernel.Eng.Go(fmt.Sprintf("%s/%s", p.Name, name), core, func(t *sim.Thread) {
		env := &Env{T: t, P: p, K: p.kernel}
		env.enter()
		body(env)
	})
}

// Enter re-establishes this environment's address space on the core,
// charging a context switch if another process's context was resident
// (e.g. after the thread was parked and other threads ran on the core).
func (e *Env) Enter() { e.enter() }

// enter makes sure the core runs this process's address space in user mode
// (charging a context switch if another process was resident).
func (e *Env) enter() {
	if !e.direct {
		e.K.switchTo(e.T.Core, e.P)
	}
	e.T.Core.Mode = hw.ModeUser
}

// Compute charges n cycles of pure user computation.
func (e *Env) Compute(n uint64) { e.T.Core.Tick(n) }

// Read performs a charged user-mode read of n bytes at va.
func (e *Env) Read(va hw.VA, buf []byte, n int) {
	e.enter()
	if err := e.T.Core.ReadData(va, buf, n); err != nil {
		panic(fmt.Sprintf("mk: %s: read %#x: %v", e.T.Name, uint64(va), err))
	}
}

// ReadRepeat charges reps user-mode one-byte reads of each byte of
// [va, va+n), in ascending order, without moving data.
func (e *Env) ReadRepeat(va hw.VA, n, reps int) {
	e.enter()
	if err := e.T.Core.ReadRepeat(va, n, reps); err != nil {
		panic(fmt.Sprintf("mk: %s: read %#x: %v", e.T.Name, uint64(va), err))
	}
}

// LoadU64 performs a charged user-mode load of the 8-byte little-endian
// word at va: what Read of those 8 bytes charges, without the byte copy.
func (e *Env) LoadU64(va hw.VA) uint64 {
	e.enter()
	v, err := e.T.Core.LoadU64(va)
	if err != nil {
		panic(fmt.Sprintf("mk: %s: read %#x: %v", e.T.Name, uint64(va), err))
	}
	return v
}

// StoreU64 performs a charged user-mode store of v's 8 little-endian bytes
// at va: what Write of those 8 bytes charges.
func (e *Env) StoreU64(va hw.VA, v uint64) {
	e.enter()
	if err := e.T.Core.StoreU64(va, v); err != nil {
		panic(fmt.Sprintf("mk: %s: write %#x: %v", e.T.Name, uint64(va), err))
	}
}

// Write performs a charged user-mode write of n bytes at va.
func (e *Env) Write(va hw.VA, buf []byte, n int) {
	e.enter()
	if err := e.T.Core.WriteData(va, buf, n); err != nil {
		panic(fmt.Sprintf("mk: %s: write %#x: %v", e.T.Name, uint64(va), err))
	}
}

// ExecCode models executing n bytes of code at va: charged instruction
// fetches through the i-TLB and L1I. Applications use it to express their
// per-operation code footprint (each process carries its own copy of its
// runtime, which is why multi-process pipelines pressure the i-cache in
// ways a single-address-space baseline does not — Table 1).
func (e *Env) ExecCode(va hw.VA, n int) {
	e.enter()
	if err := e.T.Core.TouchCode(va, n); err != nil {
		panic(fmt.Sprintf("mk: %s: exec %#x: %v", e.T.Name, uint64(va), err))
	}
}

// Now returns the thread's current cycle time.
func (e *Env) Now() uint64 { return e.T.Now() }

// Sleep blocks the thread for n cycles without charging the core: the
// thread parks and a timer event resumes it, so other threads sharing the
// core run in the gap (think time in a closed-loop client is idle, not
// busy-wait). The wake is pushed before the park on the same goroutine,
// so the thread is parked by the time the event can dispatch.
func (e *Env) Sleep(n uint64) {
	t := e.T
	t.Engine().Wake(t, t.Core.Clock+n, nil)
	t.Park()
}
