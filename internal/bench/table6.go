package bench

import (
	"fmt"
	"math/rand"
	"strings"

	"skybridge/internal/isa"
	"skybridge/internal/rewrite"
)

// Table6Row is one program class of the scanning corpus.
type Table6Row struct {
	Program     string
	Apps        int
	AvgCodeKB   int
	Inadvertent int
	// PaperCount is what the paper found.
	PaperCount int
}

// Table6Result reproduces the inadvertent-VMFUNC scan.
type Table6Result struct {
	Rows []Table6Row
	// Scale divides the corpus code sizes (1 = paper scale).
	Scale int
}

// table6Corpus mirrors the paper's Table 6 program classes (app counts and
// average code sizes in KB). The binaries themselves cannot be shipped;
// the corpus is synthesized from the ISA generator at matching sizes —
// what the scan exercises is the probability of the 3-byte pattern
// arising in realistic instruction streams, which depends on volume, not
// provenance.
var table6Corpus = []Table6Row{
	{Program: "SPECCPU 2006 (31 Apps)", Apps: 31, AvgCodeKB: 424, PaperCount: 0},
	{Program: "PARSEC 3.0 (45 Apps)", Apps: 45, AvgCodeKB: 842, PaperCount: 0},
	{Program: "Nginx v1.6.2", Apps: 1, AvgCodeKB: 979, PaperCount: 0},
	{Program: "Apache v2.4.10", Apps: 1, AvgCodeKB: 666, PaperCount: 0},
	{Program: "Memcached v1.4.21", Apps: 1, AvgCodeKB: 121, PaperCount: 0},
	{Program: "Redis v2.8.17", Apps: 1, AvgCodeKB: 729, PaperCount: 0},
	{Program: "Vmlinux v4.14.29", Apps: 1, AvgCodeKB: 10498, PaperCount: 0},
	{Program: "Kernel Modules (2934)", Apps: 2934, AvgCodeKB: 15, PaperCount: 0},
	{Program: "Other Apps (2605)", Apps: 2605, AvgCodeKB: 216, PaperCount: 1},
}

// table6Seed derives the deterministic per-row generator seed. Rows draw
// from independent streams (rather than one generator threaded through the
// row loop) so the scan can run rows on parallel workers with results
// independent of the worker count.
func table6Seed(row int) int64 { return 0x7A7A + int64(row+1)*0x9E3779B9 }

// Table6 synthesizes the corpus at 1/scale of the paper's code volume and
// scans every program, one row per worker (SetJobs) with a per-row seeded
// generator, and records each program class. The "Other Apps" class
// plants the paper's single GIMP-2.8 finding: a VMFUNC encoding inside the
// immediate of a long call instruction, which the rewriter classifies and
// neutralizes via the jump-like-instruction strategy.
func (s *Session) Table6(scale int) (*Table6Result, error) {
	if scale < 1 {
		return nil, fmt.Errorf("table6: scale divisor %d must be at least 1", scale)
	}
	res := &Table6Result{Scale: scale, Rows: make([]Table6Row, len(table6Corpus))}
	errs := make([]error, len(table6Corpus))
	const dataBase, dataLen = 0x10_0000, 1 << 20

	scanRow := func(ri int) {
		class := table6Corpus[ri]
		row := class
		rng := rand.New(rand.NewSource(table6Seed(ri)))
		size := class.AvgCodeKB * 1024 / scale
		if size < 256 {
			size = 256
		}
		for app := 0; app < class.Apps; app++ {
			code := rewrite.RandomProgram(rng, size, dataBase, dataLen)
			if class.PaperCount > 0 && app == 0 {
				// The GIMP case: an inadvertent VMFUNC inside a call's
				// immediate (rel32 bytes 0F 01 D4 00).
				var a isa.Asm
				a.CallRel32(0x00d4010f)
				code = append(code, a.Bytes()...)
				code = append(code, 0xf4) // hlt
			}
			n, err := rewrite.CountInadvertent(code)
			if err != nil {
				errs[ri] = fmt.Errorf("bench: table6 scan %q app %d: %w", class.Program, app, err)
				return
			}
			row.Inadvertent += n
			// Any found occurrence must be rewritable.
			if n > 0 {
				rw := rewrite.New(0x40_0000)
				out, err := rw.Rewrite(code)
				if err != nil {
					errs[ri] = fmt.Errorf("bench: table6 rewrite %q: %w", class.Program, err)
					return
				}
				if len(rewrite.FindPattern(out.Code))+len(rewrite.FindPattern(out.RewritePage)) != 0 {
					errs[ri] = fmt.Errorf("bench: table6: pattern survived rewriting in %q", class.Program)
					return
				}
			}
		}
		res.Rows[ri] = row
	}

	runOrdered(len(table6Corpus), cellJobs, scanRow, nil)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, row := range res.Rows {
		s.record(Record{
			Experiment: "table6",
			Config:     map[string]string{"program": row.Program, "scale": fmt.Sprintf("%d", res.Scale)},
			Values: map[string]float64{
				"inadvertent": float64(row.Inadvertent),
				"paper_count": float64(row.PaperCount),
			},
		})
	}
	return res, nil
}

// Render formats the table.
func (r *Table6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 6: inadvertent VMFUNC instructions (synthetic corpus at 1/%d of the paper's code volume)\n", r.Scale)
	fmt.Fprintf(&b, "%-28s %14s %10s %8s\n", "Program", "Avg Code (KB)", "found", "paper")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s %14d %10d %8d\n", row.Program, row.AvgCodeKB/r.Scale, row.Inadvertent, row.PaperCount)
	}
	return b.String()
}
