package bench

import (
	"testing"

	"skybridge/internal/mk"
)

// within asserts got is inside [want*(1-tol), want*(1+tol)].
func within(t *testing.T, name string, got, want float64, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Errorf("%s = %.0f, want %.0f +/- %.0f%%", name, got, want, tol*100)
	}
}

// TestTable2MatchesPaper checks the primitive-operation latencies.
func TestTable2MatchesPaper(t *testing.T) {
	r := NewSession(nil).Table2()
	vals := map[string]uint64{}
	for _, row := range r.Rows {
		vals[row.Name] = row.Cycles
	}
	if vals["write to CR3"] != 186 {
		t.Errorf("CR3 write = %d, want 186", vals["write to CR3"])
	}
	if vals["VMFUNC"] != 134 {
		t.Errorf("VMFUNC = %d, want 134", vals["VMFUNC"])
	}
	// KPTI makes the no-op syscall ~2.4x slower (paper: 431 vs 181; our
	// component model: 601 vs 229 — see EXPERIMENTS.md on the paper's own
	// component sum exceeding its syscall measurement).
	ratio := float64(vals["no-op system call w/ KPTI"]) / float64(vals["no-op system call w/o KPTI"])
	if ratio < 2.0 || ratio > 3.0 {
		t.Errorf("KPTI syscall ratio = %.2f, want ~2.4", ratio)
	}
}

// TestFigure7MatchesPaper checks every bar of the IPC breakdown against the
// paper's measurements.
func TestFigure7MatchesPaper(t *testing.T) {
	r := NewSession(nil).Figure7()
	got := map[string]uint64{}
	for _, row := range r.Rows {
		got[row.Name] = row.Total
	}
	within(t, "seL4 single-core", float64(got["seL4 single-core"]), 986, 0.05)
	within(t, "Fiasco single-core", float64(got["Fiasco.OC single-core"]), 2717, 0.05)
	within(t, "Zircon single-core", float64(got["Zircon single-core"]), 8157, 0.05)
	within(t, "seL4 cross-core", float64(got["seL4 cross-core"]), 6764, 0.08)
	within(t, "Fiasco cross-core", float64(got["Fiasco.OC cross-core"]), 8440, 0.08)
	within(t, "Zircon cross-core", float64(got["Zircon cross-core"]), 20099, 0.08)
	within(t, "SkyBridge", float64(got["seL4-SkyBridge"]), 396, 0.15)

	// Headline improvements (§6.3): "1.49x, 5.86x, and 19.6x" single-core,
	// i.e. latency ratios of ~2.49, ~6.86, ~20.6 over SkyBridge's 396.
	sb := float64(got["seL4-SkyBridge"])
	within(t, "seL4/SkyBridge ratio", float64(got["seL4 single-core"])/sb, 2.49, 0.15)
	within(t, "Fiasco/SkyBridge ratio", float64(got["Fiasco.OC single-core"])/sb, 6.86, 0.15)
	within(t, "Zircon/SkyBridge ratio", float64(got["Zircon single-core"])/sb, 20.6, 0.15)
	// Cross-core improvements: "16.08x, 20.31x and 49.76x".
	within(t, "seL4 cross ratio", float64(got["seL4 cross-core"])/sb, 17.1, 0.15)
	within(t, "Zircon cross ratio", float64(got["Zircon cross-core"])/sb, 50.8, 0.15)
}

// TestFigure8Shape checks the KV-store latency ordering at every payload
// size: Baseline < SkyBridge < Delay/IPC < IPC-CrossCore, gaps shrinking.
func TestFigure8Shape(t *testing.T) {
	r := NewSession(nil).Figure8(96)
	for i := range KVSizes {
		base := r.Cycles[TransportBaseline][i]
		sb := r.Cycles[TransportSkyBridge][i]
		delay := r.Cycles[TransportDelay][i]
		ipc := r.Cycles[TransportIPC][i]
		cross := r.Cycles[TransportIPCCross][i]
		if !(base < sb && sb < delay && delay < ipc && ipc < cross) {
			t.Errorf("size %d: ordering violated: base=%d sb=%d delay=%d ipc=%d cross=%d",
				KVSizes[i], base, sb, delay, ipc, cross)
		}
	}
	// Relative gap between IPC and Baseline shrinks as payloads grow.
	small := float64(r.Cycles[TransportIPC][0]) / float64(r.Cycles[TransportBaseline][0])
	large := float64(r.Cycles[TransportIPC][3]) / float64(r.Cycles[TransportBaseline][3])
	if large >= small {
		t.Errorf("IPC/Baseline ratio did not shrink with payload: %.2f -> %.2f", small, large)
	}
}

// TestTable1Shape checks that IPC pollutes processor structures far more
// than Baseline and Delay.
func TestTable1Shape(t *testing.T) {
	r := NewSession(nil).Table1()
	base, delay, ipc := r.Rows[0], r.Rows[1], r.Rows[2]
	if ipc.ICacheMisses <= delay.ICacheMisses || ipc.ICacheMisses <= base.ICacheMisses {
		t.Errorf("i-cache: ipc=%d delay=%d base=%d; IPC should pollute most",
			ipc.ICacheMisses, delay.ICacheMisses, base.ICacheMisses)
	}
	if ipc.DTLBMisses <= delay.DTLBMisses {
		t.Errorf("d-TLB: ipc=%d delay=%d; IPC should pollute most", ipc.DTLBMisses, delay.DTLBMisses)
	}
	if ipc.DCacheMisses <= base.DCacheMisses {
		t.Errorf("d-cache: ipc=%d base=%d", ipc.DCacheMisses, base.DCacheMisses)
	}
}

// TestTable4Shape checks the server-mode ordering for the write-heavy
// SQLite operations (SkyBridge > MT > ST) and that query benefits least.
func TestTable4Shape(t *testing.T) {
	r, err := NewSession(nil).Table4(Table4Config{Flavor: mk.SeL4, Clients: 2, OpsPerKind: 15, Preload: 60})
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[ServerMode]Table4Row{}
	for _, row := range r.Rows {
		byMode[row.Mode] = row
	}
	st, mt, sb := byMode[ModeST], byMode[ModeMT], byMode[ModeSB]
	for _, c := range []struct {
		name       string
		st, mt, sb float64
	}{
		{"insert", st.Insert, mt.Insert, sb.Insert},
		{"update", st.Update, mt.Update, sb.Update},
		{"delete", st.Delete, mt.Delete, sb.Delete},
	} {
		if !(c.sb > c.mt && c.mt > c.st) {
			t.Errorf("%s: want SkyBridge > MT > ST, got sb=%.0f mt=%.0f st=%.0f", c.name, c.sb, c.mt, c.st)
		}
	}
	// Query has the smallest relative SkyBridge gain (the DB page cache
	// absorbs reads, §6.5).
	queryGain := sb.Query / mt.Query
	insertGain := sb.Insert / mt.Insert
	if queryGain > insertGain {
		t.Errorf("query gain %.2fx exceeds insert gain %.2fx; paper says query benefits least", queryGain, insertGain)
	}
}

// TestYCSBShape checks Figures 9-11's ordering: SkyBridge on top at every
// thread count.
func TestYCSBShape(t *testing.T) {
	r, err := NewSession(nil).Figure9to11(YCSBConfig{Flavor: mk.SeL4, Threads: []int{1, 4}, Records: 150, Ops: 25})
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Threads {
		st, mtv, sb := r.Tput[ModeST][i], r.Tput[ModeMT][i], r.Tput[ModeSB][i]
		if !(sb > mtv && mtv > st) {
			t.Errorf("threads=%d: want SkyBridge > MT > ST, got sb=%.0f mt=%.0f st=%.0f",
				r.Threads[i], sb, mtv, st)
		}
	}
}

// TestTable5Shape checks the virtualization-overhead claims: zero VM exits
// and near-native throughput under the Rootkernel.
func TestTable5Shape(t *testing.T) {
	r, err := NewSession(nil).Table5(150, 25)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.VMExits != 0 {
			t.Errorf("%d threads: %d VM exits, want 0", row.Threads, row.VMExits)
		}
		ratio := row.Rootkernel / row.Native
		if ratio < 0.93 || ratio > 1.07 {
			t.Errorf("%d threads: rootkernel/native = %.3f, want ~1.0", row.Threads, ratio)
		}
	}
}

// TestTable6Shape checks the corpus scan: exactly the one planted GIMP-like
// occurrence is found.
func TestTable6Shape(t *testing.T) {
	r, err := NewSession(nil).Table6(64)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, row := range r.Rows {
		total += row.Inadvertent
		if row.Program == "Other Apps (2605)" && row.Inadvertent != 1 {
			t.Errorf("Other Apps found %d, want 1 (the GIMP case)", row.Inadvertent)
		}
	}
	if total != 1 {
		t.Errorf("corpus total = %d inadvertent VMFUNCs, want 1", total)
	}
}

// TestAblationShapes checks every design-choice ablation favors the paper's
// choice.
func TestAblationShapes(t *testing.T) {
	if r := AblationEPTClone(); r.ValueA >= r.ValueB {
		t.Errorf("shallow clone (%f) not cheaper than deep (%f)", r.ValueA, r.ValueB)
	} else if r.ValueA != 4 {
		t.Errorf("shallow clone touches %.0f pages, want 4", r.ValueA)
	}
	for _, r := range AblationHugepageEPT() {
		if r.ValueA >= r.ValueB {
			t.Errorf("%s: hugepage (%f) not better than smallpage (%f)", r.Name, r.ValueA, r.ValueB)
		}
	}
	if r := AblationExitless(); r.ValueA >= r.ValueB {
		t.Errorf("exit-less (%f) not cheaper than trap-all (%f)", r.ValueA, r.ValueB)
	}
	if r := AblationKeyCheck(); r.ValueA >= r.ValueB {
		t.Errorf("user-mode key check (%f) not cheaper than kernel (%f)", r.ValueA, r.ValueB)
	}
	if r := AblationVPID(); r.ValueA >= r.ValueB {
		t.Errorf("VPID (%f) not cheaper than flushing (%f)", r.ValueA, r.ValueB)
	}
}
