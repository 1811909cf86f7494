package rewrite

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"skybridge/internal/isa"
)

// goldenRewrite is the SHA-256 of TestRewriteGolden's output.
const goldenRewrite = "38fbafd31ba5a629beaf135169718a8c146315b2f1d84b72c3df1a9c14156413"

// TestRewriteGolden pins the rewriter's output over 300 seeded
// RandomPrograms, each with one Table 3 form planted at a varying
// instruction boundary: the runnable forms, and the spanning, branch and
// RIP-relative forms that only rewrite. It hashes each result's Code,
// RewritePage and Fixed list, and checks that
// every overlap case was fixed.
func TestRewriteGolden(t *testing.T) {
	forms := append(append([]func(a *isa.Asm){}, runnableForms...),
		func(a *isa.Asm) {
			a.AluRI(isa.ADD, isa.RAX, 0x0F000000)
			a.Alu32RR(isa.ADD, isa.RSP, isa.RDX)
		},
		func(a *isa.Asm) { a.CallRel32(0x00D4010F) },
		func(a *isa.Asm) { a.JmpRel32(0x00D4010F) },
		func(a *isa.Asm) { a.Jcc(isa.CondNE, 0x00D4010F) },
		func(a *isa.Asm) {
			a.MovRM(isa.RDX, isa.Mem{RIPRel: true, Base: isa.NoReg, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F})
		},
	)
	h := sha256.New()
	var b []byte
	seen := map[Case]int{}
	for trial := 0; trial < 300; trial++ {
		code := plantedProgram(t, int64(trial), 64+trial*37%512, forms[trial%len(forms)], trial*13)
		res, err := New(testCodeBase).Rewrite(code)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		b = binary.AppendUvarint(b[:0], uint64(len(res.Code)))
		b = append(b, res.Code...)
		b = binary.AppendUvarint(b, uint64(len(res.RewritePage)))
		b = append(b, res.RewritePage...)
		b = binary.AppendUvarint(b, uint64(len(res.Fixed)))
		for _, o := range res.Fixed {
			seen[o.Case]++
			for _, v := range []int{o.Off, int(o.Case), o.InstOff, o.SpanEnd, int(o.Inst.Op), o.Inst.Len} {
				b = binary.AppendVarint(b, int64(v))
			}
			b = append(b, o.Inst.Raw...)
		}
		h.Write(b)
	}
	for c := CaseOpcode; c <= CaseSpanning; c++ {
		if seen[c] == 0 {
			t.Errorf("no %v occurrence fixed (fixed: %v)", c, seen)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRewrite {
		t.Errorf("rewriter output moved: sha256 %s, want %s", got, goldenRewrite)
	}
}
