package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestCommittedBenchFilesRegenerate runs every catalog unit that declares
// a -benchout kind at skybench's default options and requires the JSON it
// writes to match the committed BENCH_<kind>.json byte for byte, so a
// change that moves any simulated number fails here until the file is
// regenerated with skybench -benchout <kind>=BENCH_<kind>.json.
func TestCommittedBenchFilesRegenerate(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every sweep at full scale")
	}
	if raceEnabled {
		t.Skip("too slow under the race detector; CI runs it without -race")
	}
	prev := SetJobs(runtime.GOMAXPROCS(0))
	t.Cleanup(func() { SetJobs(prev) })
	for _, u := range Catalog() {
		if u.Bench == "" {
			continue
		}
		t.Run(u.Bench, func(t *testing.T) {
			path := filepath.Join("..", "..", "BENCH_"+u.Bench+".json")
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r, err := u.Run(NewSession(nil), DefaultOptions)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := WriteJSON(&got, r); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("%s drifted from the %s unit's output at default options; regenerate it with skybench -benchout %s=%s if the change is intended",
					path, u.Name, u.Bench, filepath.Base(path))
			}
		})
	}
}
