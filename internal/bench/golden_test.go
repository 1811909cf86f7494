package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestPaperMicroUnitsGolden pins the bytes of the fast paper units
// (Table 2, Figure 7, Table 1, Figures 2 and 8, and the ablations) at
// skybench's default options: the SHA-256 of their stdout, -metrics and
// -report outputs. A change that moves any simulated number of these
// units, or any record, histogram or report entry they emit, fails here.
func TestPaperMicroUnitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six paper units at default options")
	}
	sel := map[string]bool{"table2": true, "fig7": true, "table1": true, "fig2": true, "fig8": true, "ablations": true}
	s := NewSession(nil)
	var out, metrics, report bytes.Buffer
	if err := RunAll(sel, DefaultOptions, 1, s, &out); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildReport().WriteJSON(&report); err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name string
		got  []byte
		want string
	}{
		{"stdout", out.Bytes(), "3196978374bb97f7c4015e8af3aa6a2b5e5c260c81972f597db689a8de8901c1"},
		{"-metrics", metrics.Bytes(), "10b1479aa8beef6f76b3342eb24183d8c7ce2d99872f91d98ceb2249ac769d37"},
		{"-report", report.Bytes(), "d21dc54571f22aa084355e48b6a9c33cb7ff6e32e9eae4efc5daeab3087e3422"},
	} {
		sum := sha256.Sum256(g.got)
		if got := hex.EncodeToString(sum[:]); got != g.want {
			t.Errorf("%s of the paper micro units moved: sha256 %s, want %s", g.name, got, g.want)
		}
	}
}
