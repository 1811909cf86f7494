package bench

import (
	"bytes"
	"testing"

	"skybridge/internal/ycsb"
)

// testDBScaleConfig is a miniature dbscale sweep: YCSB-A on the widened
// rows, 64 records and 16 ops per client, 1 and 2 cores — every lock and
// IO mode, small enough for -race.
func testDBScaleConfig() DBScaleConfig {
	return DBScaleConfig{
		CoreCounts:   []int{1, 2},
		Workloads:    []ycsb.Workload{dbWorkload(ycsb.WorkloadA(64))},
		Records:      64,
		OpsPerClient: 16,
	}
}

// TestDBScaleSweep drives the SQLite -> xv6fs -> blockdev stack through
// every (lock, io) cell and checks each IO mode takes its own transport:
// sync cells make no batch crossings and no ring ops, batched cells batch,
// async cells ride the rings. Every cell commits, the 2-core big lock
// contends, and the sweep's JSON is byte-identical for any cell worker
// count.
func TestDBScaleSweep(t *testing.T) {
	run := func(jobs int) (*DBScaleResult, []byte) {
		prev := SetJobs(jobs)
		defer SetJobs(prev)
		r, err := NewSession(nil).DBScale(testDBScaleConfig())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, r); err != nil {
			t.Fatal(err)
		}
		return r, b.Bytes()
	}
	r, serial := run(1)
	if len(r.Cells) != 2*2*3 {
		t.Fatalf("cells = %d, want 12", len(r.Cells))
	}
	for _, c := range r.Cells {
		name := c.Workload + "/" + c.Lock + "+" + c.IO
		switch c.IO {
		case "sync":
			if c.BatchCalls != 0 || c.RingOps != 0 {
				t.Errorf("%s %dc: %d batch crossings, %d ring ops; want 0, 0", name, c.Cores, c.BatchCalls, c.RingOps)
			}
		case "batched":
			if c.BatchCalls == 0 {
				t.Errorf("%s %dc: no batch crossings", name, c.Cores)
			}
		case "async":
			if c.RingOps == 0 {
				t.Errorf("%s %dc: no ring ops", name, c.Cores)
			}
		}
		if c.Commits == 0 {
			t.Errorf("%s %dc: no FS commits", name, c.Cores)
		}
		if c.Lock == "biglock" && c.Cores == 2 && c.LockContended == 0 {
			t.Errorf("%s 2c: the big lock never contended", name)
		}
	}
	if _, parallel := run(4); !bytes.Equal(serial, parallel) {
		t.Error("dbscale JSON differs between SetJobs(1) and SetJobs(4)")
	}
}

// TestDBScaleCatalogSmallRecords: the catalog preloads a quarter of
// -records per dbscale client, and at least one row, so -records 1-3 run
// one row instead of falling back to a built-in count. DBScale itself
// rejects a zero record or op count instead of defaulting it.
func TestDBScaleCatalogSmallRecords(t *testing.T) {
	o := DefaultOptions
	o.Records, o.Ops = 3, 1
	var got *DBScaleResult
	for _, u := range Catalog() {
		if u.Name != "dbscale" {
			continue
		}
		r, err := u.Run(NewSession(nil), o)
		if err != nil {
			t.Fatal(err)
		}
		got = r.(*DBScaleResult)
	}
	if got == nil {
		t.Fatal("no dbscale unit in the catalog")
	}
	if got.Records != 1 {
		t.Errorf("-records 3 preloaded %d rows per client, want 1", got.Records)
	}
	if _, err := NewSession(nil).DBScale(DBScaleConfig{}); err == nil {
		t.Error("DBScale(DBScaleConfig{}) returned no error")
	}
}
