package bench

import (
	"strings"
	"sync"
	"testing"

	"skybridge/internal/db"
	"skybridge/internal/mk"
	"skybridge/internal/ycsb"
)

// TestSQLClientChecksReplies loads one client, drives a mix of every op
// kind (reads, updates, inserts and scans all pass their checks), then
// breaks one expectation and requires the cell to fail naming the row.
func TestSQLClientChecksReplies(t *testing.T) {
	const records = 40
	wl := ycsb.WorkloadA(records)
	wl.ReadProp, wl.UpdateProp, wl.InsertProp, wl.ScanProp, wl.MaxScanLen = 0.25, 0.25, 0.25, 0.25, 8
	for _, tc := range []struct {
		name   string
		tamper func(env *mk.Env, c *sqlClient) error // breaks the client, then reads
		want   string
	}{
		{"untampered", func(*mk.Env, *sqlClient) error { return nil }, ""},
		{"read wrong value", func(env *mk.Env, c *sqlClient) error {
			c.want[3] += "!"
			return c.get(env, 3)
		}, "row 3: wrong value"},
		{"read missing row", func(env *mk.Env, c *sqlClient) error {
			c.want[1000] = "v"
			return c.get(env, 1000)
		}, "row 1000: found false, want true"},
		{"read unexpected row", func(env *mk.Env, c *sqlClient) error {
			delete(c.want, 3)
			return c.get(env, 3)
		}, "row 3: found true, want false"},
		{"update missing row", func(env *mk.Env, c *sqlClient) error {
			c.want[1000] = "v"
			return c.update(env, 1000, "w")
		}, "update of row 1000"},
		{"scan wrong value", func(env *mk.Env, c *sqlClient) error {
			c.want[5] += "!"
			return c.scan(env, 2, 6)
		}, "row 5: wrong value"},
		{"scan skips a row", func(env *mk.Env, c *sqlClient) error {
			if _, err := c.tab.Delete(env, 5); err != nil {
				return err
			}
			return c.scan(env, 2, 6)
		}, "row 5 skipped"},
		{"scan stops short", func(env *mk.Env, c *sqlClient) error {
			c.want[c.top+3], c.top = "v", c.top+3
			return c.scan(env, c.top-10, 100)
		}, "skipped"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, st, err := dbCell(MustWorld(WorldConfig{Flavor: mk.SeL4, Cores: 2}), ModeMT)
			if err != nil {
				t.Fatal(err)
			}
			p := c.K.NewProcess("sql0")
			_, err = c.drive([]*mk.Process{p}, c.K.Placement().Core, nil, func(_ int, env *mk.Env) error {
				cl, err := st.loadClient(env, p, "d0", db.PagerIO{}, wl, records, 8)
				if err == nil {
					err = cl.run(env, ycsb.NewGenerator(wl, 1), 60, nil)
				}
				if err == nil {
					err = tc.tamper(env, cl)
				}
				return err
			})
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("untampered client failed: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Fatalf("err = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestPaperCellsRunOncePerSessionTree: Table 5's native column is Figure
// 9's MT-Server cells, simulated once per session tree and reused bit for
// bit; a fresh session simulates them itself and gets the same rows.
func TestPaperCellsRunOncePerSessionTree(t *testing.T) {
	const records, ops = 50, 10
	s := NewSession(nil)
	fig, err := s.Figure9to11(YCSBConfig{Flavor: mk.SeL4, Threads: []int{1, 8}, Records: records, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	t5, err := s.Table5(records, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range t5.Rows {
		if row.Native != fig.Tput[ModeMT][i] {
			t.Errorf("%d threads: Table 5 native %v, Figure 9 MT-Server %v", row.Threads, row.Native, fig.Tput[ModeMT][i])
		}
	}
	if n := len(s.memo.cells); n != 8 {
		t.Errorf("session tree simulated %d cells, want 8 (6 for Figure 9, 2 more for Table 5)", n)
	}
	for i, th := range fig.Threads {
		e := s.memo.cells[ycsbCell{Flavor: mk.SeL4, Mode: ModeMT, Threads: th, Records: records, Ops: ops}]
		if e == nil || e.run.Tput != fig.Tput[ModeMT][i] {
			t.Errorf("%d threads: the memo does not hold the MT-Server cell's result", th)
		}
	}
	// Concurrent requests for one cell from sub-sessions of a new tree
	// share one simulation.
	tree := NewSession(nil)
	cell := ycsbCell{Flavor: mk.SeL4, Mode: ModeMT, Threads: 1, Records: records, Ops: ops}
	runs := make([]ycsbRun, 4)
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if runs[i], err = tree.newSub().paperCell(cell); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, r := range runs {
		if r.Tput != fig.Tput[ModeMT][0] {
			t.Errorf("concurrent request %d: %v ops/s, want %v", i, r.Tput, fig.Tput[ModeMT][0])
		}
	}
	if n := len(tree.memo.cells); n != 1 {
		t.Errorf("concurrent requests simulated %d cells, want 1", n)
	}

	fresh, err := NewSession(nil).Table5(records, ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh.Rows) != len(t5.Rows) {
		t.Fatalf("fresh Table 5 has %d rows, want %d", len(fresh.Rows), len(t5.Rows))
	}
	for i := range t5.Rows {
		if fresh.Rows[i] != t5.Rows[i] {
			t.Errorf("row %d: fresh session %+v, shared %+v", i, fresh.Rows[i], t5.Rows[i])
		}
	}
}
