package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"strings"
	"testing"

	"skybridge/internal/obs"
)

// TestCatalogUnitsGolden pins the bytes of catalog units that no BENCH
// file covers whole: the SHA-256 of their stdout, -metrics and -report
// outputs, and for the multi-threaded units also of their Chrome trace.
// A change that moves any simulated number of these units, or any record,
// histogram, report entry or trace event they emit, fails here.
//
// The micro case runs the fast paper units (Table 2, Figure 7, Table 1,
// Figures 2 and 8, and the ablations) at skybench's default options. The
// multi-threaded case runs Table 4, Figures 9-11, Table 5 and the five
// sweeps at small knobs; the BENCH files pin only the sweeps' cells. The
// table6 case runs Table 6's scan and rewrite of its synthetic corpus at
// the default scale.
func TestCatalogUnitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs seventeen catalog units")
	}
	for _, tc := range []struct {
		name  string
		units string
		opts  Options
		trace bool
		slow  bool // skipped under the race detector
		want  [4]string
	}{
		{
			name: "micro", units: "table2,fig7,table1,fig2,fig8,ablations", opts: DefaultOptions,
			want: [4]string{
				"3196978374bb97f7c4015e8af3aa6a2b5e5c260c81972f597db689a8de8901c1",
				"10b1479aa8beef6f76b3342eb24183d8c7ce2d99872f91d98ceb2249ac769d37",
				"d21dc54571f22aa084355e48b6a9c33cb7ff6e32e9eae4efc5daeab3087e3422",
			},
		},
		{
			name:  "multi-threaded",
			units: "table4,fig9,fig10,fig11,table5,scaling,async,dbscale,tenants,skew",
			opts: Options{
				Records: 100, Ops: 10, KVOps: 64,
				Clients: 2, OpsPerKind: 8, Preload: 50,
				Scale: DefaultOptions.Scale, Tenants: 64,
			},
			trace: true, slow: true,
			want: [4]string{
				"aa99b818901b6eafea628c09aec0d1617d3b3aa9db176a3b470a44676770b9da",
				"b99ad7d91b78026d492eafdd600a1795c2a6d00990dedd38ab02cf978a318624",
				"ed4bc8806ad64e8f967cf69e073c7dd78289eff0849a2f4dca737a48a792daa9",
				"279da787ec5d72523b7ba0a4cd469032214696d544871ff6bd3b2e3871270604",
			},
		},
		{
			name: "table6", units: "table6", opts: DefaultOptions, slow: true,
			want: [4]string{
				"a0d42f881b5bba19c53c4813a16d9a33d5c47f047971a63809817f4b127d0a55",
				"35a25e44b5d951e3b5ac68e5ac565002617dc1bdbcd803647fd033d58e718300",
				"e7fbe1492f87fab9b4be9471939013147ec9787470e2a7eb6d28d0ef4bf0d330",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.slow && raceEnabled {
				t.Skip("too slow under the race detector; CI runs it without -race")
			}
			jobs := runtime.GOMAXPROCS(0)
			prev := SetJobs(jobs)
			t.Cleanup(func() { SetJobs(prev) })
			sel := map[string]bool{}
			for _, u := range strings.Split(tc.units, ",") {
				sel[u] = true
			}
			var tracer *obs.Tracer
			if tc.trace {
				tracer = obs.NewTracer()
			}
			s := NewSession(tracer)
			var out, metrics, report bytes.Buffer
			if err := RunAll(sel, tc.opts, jobs, s, &out); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteMetrics(&metrics); err != nil {
				t.Fatal(err)
			}
			if err := s.BuildReport().WriteJSON(&report); err != nil {
				t.Fatal(err)
			}
			sums := [4][]byte{sum(out.Bytes()), sum(metrics.Bytes()), sum(report.Bytes())}
			if tracer != nil {
				if d := tracer.TotalDropped(); d != 0 {
					t.Fatalf("trace dropped %d events", d)
				}
				h := sha256.New()
				if err := tracer.WriteChromeTrace(h); err != nil {
					t.Fatal(err)
				}
				sums[3] = h.Sum(nil)
			}
			for i, name := range []string{"stdout", "-metrics", "-report", "-trace"} {
				if sums[i] == nil {
					continue
				}
				if got := hex.EncodeToString(sums[i]); got != tc.want[i] {
					t.Errorf("%s of the %s units moved: sha256 %s, want %s", name, tc.name, got, tc.want[i])
				}
			}
		})
	}
}

func sum(b []byte) []byte {
	s := sha256.Sum256(b)
	return s[:]
}
