package bench

import (
	"bytes"
	"testing"

	"skybridge/internal/ycsb"
)

// testAsyncConfig is small enough for -race runs while still exercising
// the 4-core cell (2 clients driving 2 per-core shards concurrently) and
// a deep enough ring that pipelining actually engages.
func testAsyncConfig() AsyncConfig {
	return AsyncConfig{
		CoreCounts: []int{1, 2, 4},
		Workloads:  []ycsb.Workload{ycsb.WorkloadC(64)},
		Records:    64,
		TotalOps:   128,
		Depths:     []int{1, 8},
	}
}

// TestAsyncSweep drives the pipelined closed-loop stack — the -race
// target for the async driver with per-core shards — and checks the
// structural claims at miniature scale: async cells cross only to
// doorbell (no per-op DirectCalls), every submission is served through
// the rings, and pipelining beats the sync baseline once client and
// server have their own cores.
func TestAsyncSweep(t *testing.T) {
	r, err := NewSession(nil).Async(testAsyncConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range []int{2, 4} {
		sync, qd8 := r.cell("YCSB-C", cores, "sync"), r.cell("YCSB-C", cores, "qd8")
		if sync == nil || qd8 == nil {
			t.Fatalf("missing %d-core cells in %+v", cores, r.Cells)
		}
		if sync.DirectCalls != uint64(r.TotalOps) || sync.RingOps != 0 {
			t.Errorf("%dc sync cell: %d direct calls, %d ring ops; want %d, 0",
				cores, sync.DirectCalls, sync.RingOps, r.TotalOps)
		}
		if qd8.RingOps != uint64(r.TotalOps) || qd8.DirectCalls != 0 {
			t.Errorf("%dc qd8 cell: %d ring ops, %d direct calls; want %d, 0",
				cores, qd8.RingOps, qd8.DirectCalls, r.TotalOps)
		}
		if qd8.Doorbells == 0 {
			t.Errorf("%dc qd8 cell rang no doorbells; the wakeup path never ran", cores)
		}
		if qd8.OpsPerMcyc <= sync.OpsPerMcyc {
			t.Errorf("%dc qd8 throughput %.1f ops/Mcyc not above sync %.1f",
				cores, qd8.OpsPerMcyc, sync.OpsPerMcyc)
		}
		if qd8.DepthMax == 0 || qd8.DepthMax > 8 {
			t.Errorf("%dc qd8 depth max %d outside (0, 8]", cores, qd8.DepthMax)
		}
	}
	// 4-core cells split the drive across two clients.
	if c := r.cell("YCSB-C", 4, "qd8"); len(c.ClientCycles) != 2 {
		t.Errorf("4-core cell has %d client windows, want 2", len(c.ClientCycles))
	}
}

// TestAsyncDeterministic: two independent sweeps must render and
// serialize byte-identically — the CI determinism gate byte-compares the
// async experiment across repeat runs and -j values.
func TestAsyncDeterministic(t *testing.T) {
	run := func() (string, []byte) {
		r, err := NewSession(nil).Async(testAsyncConfig())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, r); err != nil {
			t.Fatal(err)
		}
		return r.Render(), buf.Bytes()
	}
	out1, json1 := run()
	out2, json2 := run()
	if out1 != out2 {
		t.Errorf("renders differ:\n--- first\n%s\n--- second\n%s", out1, out2)
	}
	if !bytes.Equal(json1, json2) {
		t.Error("BENCH_async.json bytes differ between identical runs")
	}
	if out1 == "" {
		t.Error("empty render")
	}
}
