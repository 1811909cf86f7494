package hv

import (
	"cmp"
	"slices"
	"testing"

	"skybridge/internal/hw"
	"skybridge/internal/mk"
	"skybridge/internal/sim"
)

// FuzzSlotCache drives one client's EPTP slot cache through binds and
// resolves over up to 600 servers and checks it after every step. The
// input is a byte program: its first byte sizes the server population
// (1 to 600), then each step is an op byte and its operands (missing
// bytes read as 0):
//
//   - op%4 == 0: bind the next a+1 servers in population order;
//   - op%4 == 1: bind server (a<<8|b) % n (a rebind if already bound);
//   - otherwise: resolve server (a<<8|b) % n on core 0 with op>>2&3 pins,
//     each read as one more byte r: the resident slot of LRU rank r %
//     residents (rank 0 is the least recently loaded).
//
// After every step: serverSlot and slotServer are inverse, slot 0 and
// every pinned slot keep their server, at most 511 servers are resident,
// and a VMFUNC to slot 0 and to each resident slot on core 1, which runs
// the client, lands in the client's own or that server's page table.
func FuzzSlotCache(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		c := newSlotCacheWorld(t, prog)
		for step := 0; step < 64 && len(c.prog) > 0; step++ {
			c.step(t)
			c.check(t, step)
		}
	})
}

type slotCacheWorld struct {
	rk      *Rootkernel
	k       *mk.Kernel
	client  *mk.Process
	ps      *procState
	servers []*mk.Process // by population index; nil until first bound
	ids     []int         // server IDs by population index
	next    int           // bind-next cursor
	pins    []int         // the last resolve's pins
	pinned  []int         // the servers they held
	prog    []byte
}

func newSlotCacheWorld(t *testing.T, prog []byte) *slotCacheWorld {
	eng := sim.NewEngine(hw.NewMachine(hw.MachineConfig{Cores: 2, MemBytes: 1 << 30}))
	k := mk.New(mk.Config{Flavor: mk.SeL4}, eng)
	rk, err := Boot(k, Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := &slotCacheWorld{rk: rk, k: k, client: k.NewProcess("client"), prog: prog}
	n := 1 + int(c.read())*599/255
	c.servers, c.ids = make([]*mk.Process, n), make([]int, n)
	c.ps = rk.ensureProc(c.client)
	for _, cpu := range k.Mach.Cores {
		if err := rk.InstallFor(cpu, c.client); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// read consumes one program byte (0 past the end).
func (c *slotCacheWorld) read() byte {
	if len(c.prog) == 0 {
		return 0
	}
	b := c.prog[0]
	c.prog = c.prog[1:]
	return b
}

func (c *slotCacheWorld) bind(t *testing.T, i int) {
	cpu := c.k.Mach.Cores[0]
	if c.servers[i] == nil {
		c.servers[i] = c.k.NewProcess("srv")
		id, err := c.rk.RegisterServer(cpu, c.servers[i])
		if err != nil {
			t.Fatal(err)
		}
		c.ids[i] = id
	}
	if _, err := c.rk.Bind(cpu, c.client, c.servers[i], c.ids[i]); err != nil {
		t.Fatalf("bind server %d: %v", i, err)
	}
}

func (c *slotCacheWorld) step(t *testing.T) {
	n := len(c.servers)
	op, a := c.read(), c.read()
	c.pins, c.pinned = c.pins[:0], c.pinned[:0]
	switch op % 4 {
	case 0:
		for j := 0; j <= int(a) && c.next < n; j++ {
			c.bind(t, c.next)
			c.next++
		}
		return
	case 1:
		c.bind(t, (int(a)<<8|int(c.read()))%n)
		return
	}
	i := (int(a)<<8 | int(c.read())) % n
	lru := c.residentByAge()
	c.pins = append(c.pins, 0)
	for j := 0; j < int(op>>2&3); j++ {
		r := c.read()
		if len(lru) > 0 {
			c.pins = append(c.pins, lru[int(r)%len(lru)])
		}
	}
	for _, s := range c.pins {
		c.pinned = append(c.pinned, c.ps.slots.slotServer[s])
	}
	slot, err := c.rk.ResolveSlot(c.k.Mach.Cores[0], c.client, c.ids[i], c.pins)
	if c.servers[i] == nil {
		if err == nil {
			t.Fatalf("resolve of unbound server %d gave slot %d", i, slot)
		}
		return
	}
	if err != nil {
		t.Fatalf("resolve server %d: %v", i, err)
	}
	if got := c.ps.slots.slotServer[slot]; got != c.ids[i] {
		t.Fatalf("resolve server %d (id %d) gave slot %d holding %d", i, c.ids[i], slot, got)
	}
}

// residentByAge lists the resident slots, least recently loaded first.
func (c *slotCacheWorld) residentByAge() []int {
	var out []int
	for s := 1; s < hw.EPTPListSize; s++ {
		if c.ps.slots.slotServer[s] != 0 {
			out = append(out, s)
		}
	}
	slices.SortFunc(out, func(x, y int) int {
		return cmp.Compare(c.ps.slots.lastLoad[x], c.ps.slots.lastLoad[y])
	})
	return out
}

func (c *slotCacheWorld) check(t *testing.T, step int) {
	ss := &c.ps.slots
	if ss.slotServer[0] != 0 {
		t.Fatalf("step %d: slot 0 holds server %d", step, ss.slotServer[0])
	}
	for j, s := range c.pins {
		if ss.slotServer[s] != c.pinned[j] {
			t.Fatalf("step %d: pinned slot %d went from server %d to %d", step, s, c.pinned[j], ss.slotServer[s])
		}
	}
	if len(ss.serverSlot) > hw.EPTPListSize-1 {
		t.Fatalf("step %d: %d servers resident", step, len(ss.serverSlot))
	}
	for id, s := range ss.serverSlot {
		if s <= 0 || s >= hw.EPTPListSize || ss.slotServer[s] != id {
			t.Fatalf("step %d: server %d maps to slot %d, which holds %d", step, id, s, ss.slotServer[s])
		}
	}
	roots := map[int]hw.GPA{0: c.client.PT.Root}
	for i, p := range c.servers {
		if p != nil {
			roots[c.ids[i]] = p.PT.Root
		}
	}
	cpu, cr3 := c.k.Mach.Cores[1], c.client.PT.Root.PageBase()
	for s := 0; s < hw.EPTPListSize; s++ {
		id := ss.slotServer[s]
		if id == 0 && s != 0 {
			continue
		}
		if s != 0 && ss.serverSlot[id] != s {
			t.Fatalf("step %d: slot %d holds server %d, which maps to slot %d", step, s, id, ss.serverSlot[id])
		}
		if err := cpu.VMFunc(0, s); err != nil {
			t.Fatalf("step %d: vmfunc to slot %d (server %d): %v", step, s, id, err)
		}
		hpa, v := cpu.EPT().Translate(cr3, hw.AccessRead)
		if v != nil || hpa != hw.HPA(roots[id]) {
			t.Fatalf("step %d: slot %d (server %d): CR3 maps to %#x, want %#x", step, s, id, uint64(hpa), uint64(roots[id]))
		}
	}
	if err := cpu.VMFunc(0, 0); err != nil {
		t.Fatal(err)
	}
}
