package bench

import (
	"bytes"
	"testing"
)

// TestTenantOps: zipfian redistribution preserves the total, floors every
// tenant at one op, and concentrates load on the head ranks.
func TestTenantOps(t *testing.T) {
	uniform := tenantOps("uniform", 16, 8)
	for tt, o := range uniform {
		if o != 8 {
			t.Fatalf("uniform tenant %d ops = %d, want 8", tt, o)
		}
	}
	zipf := tenantOps("zipfian", 16, 8)
	sum := 0
	for tt, o := range zipf {
		if o < 1 {
			t.Fatalf("zipfian tenant %d ops = %d, want >= 1", tt, o)
		}
		sum += o
	}
	if sum != 16*8 {
		t.Fatalf("zipfian total = %d, want %d", sum, 16*8)
	}
	if zipf[0] <= 2*8 {
		t.Fatalf("zipfian head tenant ops = %d, want > 2x uniform share", zipf[0])
	}
	if zipf[15] >= zipf[0] {
		t.Fatalf("zipfian tail ops %d not below head %d", zipf[15], zipf[0])
	}
}

// smallTenantsCfg keeps the sweep test-sized while still covering both
// distributions, two populations, and two server-core counts.
func smallTenantsCfg() TenantsConfig {
	return TenantsConfig{
		TenantCounts: []int{8, 24},
		ServerCores:  []int{1, 2},
		Dists:        []string{"uniform", "zipfian"},
		OpsPerTenant: 4,
	}
}

// TestTenantsSweep: the small sweep completes, every cell measured real
// work (ring ops cover every operation, the directory swept, cold p99
// observed), and aggregate throughput grows with the tenant count at
// fixed cores — the open-loop population is the load generator.
func TestTenantsSweep(t *testing.T) {
	s := NewSession(nil)
	r, err := s.Tenants(smallTenantsCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 8 {
		t.Fatalf("cells = %d, want 8", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.TotalOps == 0 || c.OpsPerMcyc <= 0 || c.Makespan == 0 {
			t.Errorf("%s/%dt/%dc: empty cell %+v", c.Dist, c.Tenants, c.ServerCores, c)
		}
		if c.RingOps < uint64(c.TotalOps) {
			t.Errorf("%s/%dt/%dc: ring ops %d < total ops %d", c.Dist, c.Tenants, c.ServerCores, c.RingOps, c.TotalOps)
		}
		if c.Sweeps == 0 || c.TenantsVisited == 0 {
			t.Errorf("%s/%dt/%dc: directory never swept (%d sweeps, %d visited)", c.Dist, c.Tenants, c.ServerCores, c.Sweeps, c.TenantsVisited)
		}
		if c.ColdP99 == 0 {
			t.Errorf("%s/%dt/%dc: no cold-class latency recorded", c.Dist, c.Tenants, c.ServerCores)
		}
		if c.Dist == "zipfian" && c.HotTenants == 0 {
			t.Errorf("zipfian %dt/%dc: no hot tenants classified", c.Tenants, c.ServerCores)
		}
	}
	for _, dist := range r.Dists {
		for _, sc := range r.ServerCores {
			lo, hi := r.cell(dist, 8, sc), r.cell(dist, 24, sc)
			if lo == nil || hi == nil {
				t.Fatalf("missing cells for %s/%dc", dist, sc)
			}
			if hi.OpsPerMcyc <= lo.OpsPerMcyc {
				t.Errorf("%s/%dc: op/Mc did not grow with tenants (8t %.1f, 24t %.1f)",
					dist, sc, lo.OpsPerMcyc, hi.OpsPerMcyc)
			}
		}
	}
	if r.Render() == "" {
		t.Error("sweep rendered empty")
	}
}

// TestTenantsDeterministic: the serialized sweep is byte-identical across
// repeated runs and across cell worker counts, per-cell parallelism
// included.
func TestTenantsDeterministic(t *testing.T) {
	out := func() []byte {
		r, err := NewSession(nil).Tenants(smallTenantsCfg())
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, r); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}
	serial := out()
	again := out()
	if !bytes.Equal(serial, again) {
		t.Fatal("repeated serial runs differ")
	}
	prev := SetJobs(4)
	defer SetJobs(prev)
	parallel := out()
	if !bytes.Equal(serial, parallel) {
		t.Fatal("-j 4 run differs from serial run")
	}
}
