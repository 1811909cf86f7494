// Package repro's top-level benchmarks regenerate every table and figure of
// the paper's evaluation, one testing.B benchmark per artifact. The sizes
// here are reduced so `go test -bench=.` completes in minutes; cmd/skybench
// exposes paper-scale knobs.
//
// Benchmarks report simulated quantities through b.ReportMetric:
// sim-cycles/op for latency artifacts, sim-ops/sec for throughput
// artifacts. Wall-clock ns/op measures only the simulator itself.
package main

import (
	"testing"

	"skybridge/internal/bench"
	"skybridge/internal/mk"
)

// BenchmarkTable1 regenerates the processor-structure pollution table
// (Baseline vs Delay vs IPC over 512 KV-store operations).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewSession(nil).Table1()
		ipc := r.Rows[2]
		b.ReportMetric(float64(ipc.DTLBMisses), "ipc-dtlb-misses")
		b.ReportMetric(float64(ipc.ICacheMisses), "ipc-icache-misses")
	}
}

// BenchmarkTable2 regenerates the instruction/operation latency table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewSession(nil).Table2()
		for _, row := range r.Rows {
			if row.Name == "VMFUNC" {
				b.ReportMetric(float64(row.Cycles), "vmfunc-cycles")
			}
		}
	}
}

// BenchmarkFigure2 regenerates the KV-store latency series (four
// transports x four payload sizes).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewSession(nil).Figure2(128)
		b.ReportMetric(float64(r.Cycles[bench.TransportIPC][0]), "ipc-16B-cycles/op")
	}
}

// BenchmarkFigure7 regenerates the IPC round-trip breakdowns for the three
// kernels plus SkyBridge.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewSession(nil).Figure7()
		for _, row := range r.Rows {
			if row.Name == "seL4-SkyBridge" {
				b.ReportMetric(float64(row.Total), "skybridge-cycles/rt")
			}
			if row.Name == "seL4 single-core" {
				b.ReportMetric(float64(row.Total), "sel4-cycles/rt")
			}
		}
	}
}

// BenchmarkFigure8 regenerates the KV-store series including SkyBridge.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.NewSession(nil).Figure8(128)
		b.ReportMetric(float64(r.Cycles[bench.TransportSkyBridge][0]), "skybridge-16B-cycles/op")
	}
}

// benchTable4 runs one kernel flavor's Table 4 block.
func benchTable4(b *testing.B, flavor mk.Flavor) {
	for i := 0; i < b.N; i++ {
		r, err := bench.NewSession(nil).Table4(bench.Table4Config{Flavor: flavor, Clients: 2, OpsPerKind: 15, Preload: 60})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Mode == bench.ModeSB {
				b.ReportMetric(row.Insert, "skybridge-insert-ops/s")
			}
			if row.Mode == bench.ModeMT {
				b.ReportMetric(row.Insert, "mt-insert-ops/s")
			}
		}
	}
}

// BenchmarkTable4SeL4 regenerates Table 4's seL4 block.
func BenchmarkTable4SeL4(b *testing.B) { benchTable4(b, mk.SeL4) }

// BenchmarkTable4Fiasco regenerates Table 4's Fiasco.OC block.
func BenchmarkTable4Fiasco(b *testing.B) { benchTable4(b, mk.Fiasco) }

// BenchmarkTable4Zircon regenerates Table 4's Zircon block.
func BenchmarkTable4Zircon(b *testing.B) { benchTable4(b, mk.Zircon) }

// benchYCSB runs one kernel flavor's YCSB-A scalability figure.
func benchYCSB(b *testing.B, flavor mk.Flavor) {
	for i := 0; i < b.N; i++ {
		r, err := bench.NewSession(nil).Figure9to11(bench.YCSBConfig{Flavor: flavor, Threads: []int{1, 4}, Records: 200, Ops: 30})
		if err != nil {
			b.Fatal(err)
		}
		series := r.Tput[bench.ModeSB]
		b.ReportMetric(series[0], "skybridge-1t-ops/s")
		b.ReportMetric(r.Tput[bench.ModeST][0], "st-1t-ops/s")
	}
}

// BenchmarkFigure9 regenerates the seL4 YCSB-A figure.
func BenchmarkFigure9(b *testing.B) { benchYCSB(b, mk.SeL4) }

// BenchmarkFigure10 regenerates the Fiasco.OC YCSB-A figure.
func BenchmarkFigure10(b *testing.B) { benchYCSB(b, mk.Fiasco) }

// BenchmarkFigure11 regenerates the Zircon YCSB-A figure.
func BenchmarkFigure11(b *testing.B) { benchYCSB(b, mk.Zircon) }

// BenchmarkTable5 regenerates the virtualization-overhead table.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.NewSession(nil).Table5(200, 30)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Rows[0].VMExits), "vm-exits")
		b.ReportMetric(r.Rows[0].Rootkernel/r.Rows[0].Native, "rootkernel/native")
	}
}

// BenchmarkTable6 regenerates the inadvertent-VMFUNC scan (corpus at 1/64
// of the paper's code volume here; cmd/skybench -scale 1 for full size).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := bench.NewSession(nil).Table6(64)
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, row := range r.Rows {
			total += row.Inadvertent
		}
		b.ReportMetric(float64(total), "inadvertent-vmfuncs")
	}
}

// BenchmarkEPTCloneShallowVsDeep is DESIGN.md ablation 1.
func BenchmarkEPTCloneShallowVsDeep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.AblationEPTClone()
		b.ReportMetric(r.ValueA, "shallow-pages")
		b.ReportMetric(r.ValueB, "deep-pages")
	}
}

// BenchmarkHugepageVsSmallPageEPT is DESIGN.md ablation 2.
func BenchmarkHugepageVsSmallPageEPT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs := bench.AblationHugepageEPT()
		b.ReportMetric(rs[0].ValueA, "hugepage-tables")
		b.ReportMetric(rs[0].ValueB, "smallpage-tables")
	}
}

// BenchmarkExitlessVsTrapping is DESIGN.md ablation 3.
func BenchmarkExitlessVsTrapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.AblationExitless()
		b.ReportMetric(r.ValueB/r.ValueA, "trap-all-slowdown")
	}
}

// BenchmarkKeyCheckVsKernelCheck is DESIGN.md ablation 4.
func BenchmarkKeyCheckVsKernelCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.AblationKeyCheck()
		b.ReportMetric(r.ValueA, "user-check-cycles")
		b.ReportMetric(r.ValueB, "kernel-check-cycles")
	}
}

// BenchmarkVPIDvsFlush is DESIGN.md ablation 5.
func BenchmarkVPIDvsFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.AblationVPID()
		b.ReportMetric(r.ValueA, "vpid-cycles")
		b.ReportMetric(r.ValueB, "flush-cycles")
	}
}

// BenchmarkTempMappingVsTwoCopy measures L4's temporary-mapping long-IPC
// optimization (paper §8.1) against the default two-copy transfer.
func BenchmarkTempMappingVsTwoCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := bench.AblationTempMapping()
		b.ReportMetric(r.ValueA, "tempmap-cycles/rt")
		b.ReportMetric(r.ValueB, "twocopy-cycles/rt")
	}
}
