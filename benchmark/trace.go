package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"skybridge/internal/mk"
	"skybridge/internal/sim"
	"skybridge/internal/svc"
)

// keptSpans is how many complete spans a traced run keeps for writing
// out; every span, kept or not, feeds the per-layer histograms.
const keptSpans = 100_000

// Span layers. Transport spans time a client's call into a connection;
// their self time (duration minus the handler spans nested in them) is
// the crossing: trampoline, VMFUNC and svc marshalling for SkyBridge,
// the kernel IPC path for mk.
const (
	layerSBCall  = "core.call"   // svc.Conn.Invoke over SkyBridge
	layerIPCCall = "mk.call"     // svc.Conn.Invoke over kernel IPC
	layerSubmit  = "core.submit" // svc.Router.Submit plus its doorbell flush
	layerReap    = "core.reap"   // core.AsyncRing.Reap
	layerDB      = "db"          // one db.Table operation
	layerFS      = "fs"          // the FS server handler
	layerDev     = "blockdev"    // the block-device server handler
	layerKV      = "kv"          // the placed KV store handler
	layerEcho    = "echo"        // the echo server handler
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req, the ID of the request's first span.
type span struct {
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent,omitempty"`
	Req    uint32 `json:"req"`
	Layer  string `json:"layer"`
	Core   int    `json:"core"`
	Start  uint64 `json:"start"`
	End    uint64 `json:"end"`
}

type openSpan struct {
	span
	nested uint64 // cycles of child spans that ran inside this one
}

// layerStat aggregates every span of one layer.
type layerStat struct {
	self, dur *latencies
}

// tracer records spans around the calls the benchmark makes into the
// layers and around the handlers it registers. Times are simulated
// cycles read from the core clock, which charges nothing, so a traced
// run simulates exactly what an untraced one does.
//
// A span's parent is the innermost open span of the same simulated
// thread, except for server handlers: they can run on another thread
// (kernel IPC servers, ring drains), so the client-side span ID travels
// in the upper half of the request's 64-bit opcode register and the
// handler wrapper strips it before the service sees the request.
type tracer struct {
	on     bool
	next   uint32
	open   map[uint32]*openSpan
	stacks map[*sim.Thread][]uint32
	// handedOff maps a ring submission's span, closed before its handler
	// runs, to its request until the handler claims it.
	handedOff map[uint32]uint32
	kept      []span
	layers    map[string]*layerStat
}

func newTracer() *tracer {
	return &tracer{
		open:      map[uint32]*openSpan{},
		stacks:    map[*sim.Thread][]uint32{},
		handedOff: map[uint32]uint32{},
		layers:    map[string]*layerStat{},
	}
}

// start turns recording on at the start of the measurement window.
func (t *tracer) start() {
	if t != nil {
		t.on = true
	}
}

// begin opens a span on env's thread whose parent is that thread's
// innermost open span. It returns 0, and records nothing, when tracing
// is off.
func (t *tracer) begin(env *mk.Env, layer string) uint32 {
	if t == nil || !t.on {
		return 0
	}
	var parent uint32
	if st := t.stacks[env.T]; len(st) > 0 {
		parent = st[len(st)-1]
	}
	return t.beginUnder(env, layer, parent)
}

// beginUnder opens a span on env's thread under an explicit parent.
func (t *tracer) beginUnder(env *mk.Env, layer string, parent uint32) uint32 {
	t.next++
	id := t.next
	req := id
	if p, ok := t.open[parent]; ok {
		req = p.Req
	} else if r, ok := t.handedOff[parent]; ok {
		req = r
		delete(t.handedOff, parent)
	}
	t.open[id] = &openSpan{span: span{
		ID: id, Parent: parent, Req: req, Layer: layer,
		Core: env.T.Core.ID, Start: env.Now(),
	}}
	t.stacks[env.T] = append(t.stacks[env.T], id)
	return id
}

// end closes span id (the innermost open span of env's thread).
func (t *tracer) end(env *mk.Env, id uint32) {
	if id == 0 {
		return
	}
	s := t.open[id]
	delete(t.open, id)
	st := t.stacks[env.T]
	t.stacks[env.T] = st[:len(st)-1]
	s.End = env.Now()
	dur := s.End - s.Start
	if p, ok := t.open[s.Parent]; ok {
		p.nested += dur
	}
	ls := t.layers[s.Layer]
	if ls == nil {
		ls = &layerStat{self: &latencies{}, dur: &latencies{}}
		t.layers[s.Layer] = ls
	}
	ls.dur.add(dur)
	ls.self.add(dur - s.nested)
	if len(t.kept) < keptSpans {
		t.kept = append(t.kept, s.span)
	}
}

// handOff closes a ring submission's span but lets the handler that
// later serves it, on the drain's thread, join the same request.
func (t *tracer) handOff(env *mk.Env, id uint32) {
	if id == 0 {
		return
	}
	req := t.open[id].Req
	t.end(env, id)
	t.handedOff[id] = req
}

// tag carries span id to the handler in the opcode's upper half; opcodes
// of every service here fit the lower half.
func tag(req svc.Req, id uint32) svc.Req {
	req.Op |= uint64(id) << 32
	return req
}

// untag splits a tagged request into the service's request and the
// caller's span.
func untag(req svc.Req) (svc.Req, uint32) {
	id := uint32(req.Op >> 32)
	req.Op &= 1<<32 - 1
	return req, id
}

// conn wraps a client connection so every call is a span of layer and
// every batch a span of layer+".batch". It keeps svc.Batcher semantics:
// a batch still crosses once when the connection batches.
func (t *tracer) conn(layer string, c svc.Conn) svc.Conn {
	if t == nil {
		return c
	}
	return &tracedConn{t: t, layer: layer, inner: c}
}

type tracedConn struct {
	t     *tracer
	layer string
	inner svc.Conn
}

func (c *tracedConn) Invoke(env *mk.Env, req svc.Req) (svc.Resp, error) {
	id := c.t.begin(env, c.layer)
	resp, err := c.inner.Invoke(env, tag(req, id))
	c.t.end(env, id)
	return resp, err
}

func (c *tracedConn) InvokeBatch(env *mk.Env, reqs []svc.Req) ([]svc.Resp, error) {
	id := c.t.begin(env, c.layer+".batch")
	tagged := make([]svc.Req, len(reqs))
	for i, req := range reqs {
		tagged[i] = tag(req, id)
	}
	resps, err := svc.InvokeBatch(env, c.inner, tagged)
	c.t.end(env, id)
	return resps, err
}

// handler wraps a service handler as a span of layer.
func (t *tracer) handler(layer string, h svc.Handler) svc.Handler {
	if t == nil {
		return h
	}
	return func(env *mk.Env, req svc.Req) svc.Resp {
		req, parent := untag(req)
		id := t.serve(env, layer, parent)
		resp := h(env, req)
		t.end(env, id)
		return resp
	}
}

// tenantHandler wraps a multi-tenant handler as a span of layer.
func (t *tracer) tenantHandler(layer string, h svc.TenantHandler) svc.TenantHandler {
	if t == nil {
		return h
	}
	return func(env *mk.Env, tenant int, req svc.Req) svc.Resp {
		req, parent := untag(req)
		id := t.serve(env, layer, parent)
		resp := h(env, tenant, req)
		t.end(env, id)
		return resp
	}
}

func (t *tracer) serve(env *mk.Env, layer string, parent uint32) uint32 {
	if !t.on {
		return 0
	}
	return t.beginUnder(env, layer, parent)
}

// stat returns the aggregate of one layer (nil when it recorded nothing).
func (t *tracer) stat(layer string) *layerStat {
	if t == nil {
		return nil
	}
	return t.layers[layer]
}

// layerSummary is one layer's line in layers.json.
type layerSummary struct {
	Spans    uint64 `json:"spans"`
	SelfP50  uint64 `json:"self_p50"`
	SelfP99  uint64 `json:"self_p99"`
	SelfP999 uint64 `json:"self_p999"`
	DurP50   uint64 `json:"dur_p50"`
	DurP99   uint64 `json:"dur_p99"`
}

// write stores the kept spans (one JSON object per line) and the
// per-layer self-time summary in dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sum := map[string]layerSummary{}
	names := make([]string, 0, len(t.layers))
	for name := range t.layers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ls := t.layers[name]
		sum[name] = layerSummary{
			Spans:    ls.dur.n,
			SelfP50:  ls.self.quantile(0.5),
			SelfP99:  ls.self.quantile(0.99),
			SelfP999: ls.self.quantile(0.999),
			DurP50:   ls.dur.quantile(0.5),
			DurP99:   ls.dur.quantile(0.99),
		}
	}
	buf, err := json.MarshalIndent(sum, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "layers.json"), append(buf, '\n'), 0o644); err != nil {
		return fmt.Errorf("write layers: %w", err)
	}
	return nil
}
