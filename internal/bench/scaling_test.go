package bench

import (
	"bytes"
	"testing"

	"skybridge/internal/ycsb"
)

// testScalingConfig is small enough for -race runs yet large enough
// (>=192 ops) that the per-crossing savings dominate the one-time
// cold-cache cost of the batch ring.
func testScalingConfig() ScalingConfig {
	return ScalingConfig{
		CoreCounts: []int{1, 2},
		Workloads:  []ycsb.Workload{ycsb.WorkloadC(64)},
		Records:    64,
		TotalOps:   192,
	}
}

// TestScalingSweep drives the full multi-client closed-loop stack — the
// -race target for the multicore driver — and checks the headline
// claims at miniature scale: adding a core raises aggregate throughput,
// and batched submission lowers amortized cycles per op.
func TestScalingSweep(t *testing.T) {
	r, err := NewSession(nil).Scaling(testScalingConfig())
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := r.cell("YCSB-C", 1), r.cell("YCSB-C", 2)
	if c1 == nil || c2 == nil {
		t.Fatalf("missing cells in %+v", r.Cells)
	}
	if c2.OpsPerMcyc <= c1.OpsPerMcyc {
		t.Errorf("2-core throughput %.2f ops/Mcyc not above 1-core %.2f",
			c2.OpsPerMcyc, c1.OpsPerMcyc)
	}
	if len(c2.ClientCycles) != 2 || len(c2.ShardCalls) != 2 {
		t.Errorf("2-core cell has %d client windows, %d shard counters; want 2, 2",
			len(c2.ClientCycles), len(c2.ShardCalls))
	}
	for i, calls := range c2.ShardCalls {
		if calls == 0 {
			t.Errorf("shard %d served no calls; routing is not fanning out", i)
		}
	}
	// Batching leverage: fewer crossings than requests.
	if c2.BatchCrossings == 0 || c2.DirectCalls <= c2.BatchCrossings {
		t.Errorf("crossings %d vs direct calls %d: batching not engaged",
			c2.BatchCrossings, c2.DirectCalls)
	}

	// Ablation: unbatched submission on the widest machine must cost more
	// amortized cycles per op than the batched partner cell.
	b1 := r.AblationB1
	if b1 == nil || b1.Batch != 1 || b1.Cores != 2 {
		t.Fatalf("ablation cell = %+v, want batch 1 on 2 cores", b1)
	}
	if b1.CyclesPerOp <= c2.CyclesPerOp {
		t.Errorf("B=1 costs %.0f cyc/op, batched B=%d costs %.0f; batching should be cheaper",
			b1.CyclesPerOp, c2.Batch, c2.CyclesPerOp)
	}
}

// TestScalingDeterministic: two independent sweeps must render and
// serialize byte-identically — the CI determinism gate depends on it.
func TestScalingDeterministic(t *testing.T) {
	run := func() (string, []byte) {
		r, err := NewSession(nil).Scaling(testScalingConfig())
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
		t.Error("BENCH_scaling.json bytes differ between identical runs")
	}
	if out1 == "" {
		t.Error("empty render")
	}
}
