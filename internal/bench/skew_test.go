package bench

import (
	"bytes"
	"testing"

	"skybridge/internal/ycsb"
)

// TestSkewAdaptiveBeatsStaticOnHotspot runs a reduced hotspot cell pair
// and checks the mechanisms actually engaged: adaptive placement
// out-throughputs the frozen block placement, migrations and steals
// happened, and every wrong-epoch reject was matched by a client
// resubmit (no lost ops — the cell errors out on a missing completion).
func TestSkewAdaptiveBeatsStaticOnHotspot(t *testing.T) {
	r, err := NewSession(nil).Skew(SkewConfig{
		ServerCores: []int{2},
		Dists:       []string{ycsb.DistHotspot},
		TotalOps:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, ad := r.cell(ycsb.DistHotspot, "static", 2), r.cell(ycsb.DistHotspot, "adaptive", 2)
	if st == nil || ad == nil {
		t.Fatalf("missing cells: %+v", r.Cells)
	}
	if ad.OpsPerMcyc <= st.OpsPerMcyc {
		t.Errorf("adaptive %.1f op/Mc <= static %.1f", ad.OpsPerMcyc, st.OpsPerMcyc)
	}
	if ad.Migrations == 0 {
		t.Error("adaptive cell migrated nothing")
	}
	if ad.Steals == 0 || ad.StolenOps == 0 {
		t.Errorf("adaptive cell stole nothing (steals=%d stolen=%d)", ad.Steals, ad.StolenOps)
	}
	if st.Migrations != 0 || st.Steals != 0 || st.ScaleDowns != 0 {
		t.Errorf("static cell took control actions: %+v", st)
	}
	if ad.WrongEpoch != ad.Retries {
		t.Errorf("wrong-epoch rejects %d != client retries %d", ad.WrongEpoch, ad.Retries)
	}
}

// TestSkewTroughScalesDown checks the autoscaling cell: the paced middle
// segment parks at least one drain (gate cycles accrue) and the
// closed-loop tail wakes it back.
func TestSkewTroughScalesDown(t *testing.T) {
	r, err := NewSession(nil).Skew(SkewConfig{
		ServerCores: []int{2},
		Dists:       []string{"trough"},
		TotalOps:    1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	ad := r.cell("trough", "adaptive", 2)
	if ad == nil {
		t.Fatal("missing trough/adaptive cell")
	}
	if ad.ScaleDowns == 0 {
		t.Error("trough never scaled down")
	}
	if ad.ScaleUps == 0 {
		t.Error("trough never scaled back up")
	}
	if ad.GateParkedCycles == 0 {
		t.Error("no gate-parked cycles recorded")
	}
	if ad.BusyCycles == 0 || ad.BusyCycles >= uint64(ad.ServerCores)*ad.Makespan {
		t.Errorf("busy cycles %d not in (0, cores*makespan=%d)", ad.BusyCycles, uint64(ad.ServerCores)*ad.Makespan)
	}
}

// TestSkewDeterministicAcrossWorkers: the sweep's JSON document is
// byte-identical for any cell-worker count and across repeats (the
// CI determinism job asserts the same property on the full binary).
func TestSkewDeterministicAcrossWorkers(t *testing.T) {
	cfg := SkewConfig{ServerCores: []int{2}, TotalOps: 512}
	var outs [][]byte
	for _, jobs := range []int{1, 4, 1} {
		prev := SetJobs(jobs)
		r, err := NewSession(nil).Skew(cfg)
		SetJobs(prev)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := WriteJSON(&b, r); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("skew output differs between -j 1 and -j 4")
	}
	if !bytes.Equal(outs[0], outs[2]) {
		t.Error("skew output differs between repeat runs")
	}
}
