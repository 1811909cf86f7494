// KV-store pipeline (the paper's Figure 1): client -> encryption server ->
// key-value store, run over all five transport configurations of
// Figures 2/8, printing the per-operation latency of each.
package main

import (
	"fmt"

	"skybridge/internal/bench"
)

func main() {
	const ops = 256
	s := bench.NewSession(nil)
	fmt.Println("KV pipeline: 50% insert / 50% query, per-op latency in simulated cycles")
	fmt.Printf("%-14s", "transport")
	for _, size := range bench.KVSizes {
		fmt.Printf(" %10d-B", size)
	}
	fmt.Println()
	for _, tr := range []bench.Transport{
		bench.TransportBaseline, bench.TransportDelay,
		bench.TransportIPC, bench.TransportIPCCross, bench.TransportSkyBridge,
	} {
		fmt.Printf("%-14s", tr)
		for _, size := range bench.KVSizes {
			fmt.Printf(" %12d", s.RunKV(tr, size, ops).AvgCycles)
		}
		fmt.Println()
	}
	fmt.Println("\nexpected shape (paper Figure 8): Baseline < SkyBridge < Delay < IPC < IPC-CrossCore,")
	fmt.Println("with the gaps shrinking as the payload grows.")
}
