package rewrite

import (
	"math/rand"
	"testing"

	"skybridge/internal/isa"
)

// runnableForms are Table 3 forms that run from any state runBoth sets
// up: each loads the base register of its memory operand first, so the
// access lands in the data region.
var runnableForms = []func(a *isa.Asm){
	func(a *isa.Asm) { a.Vmfunc() },
	func(a *isa.Asm) { a.AluRI(isa.ADD, isa.RBX, 0xD4010F) },
	func(a *isa.Asm) { a.MovRI32(isa.RCX, 0xD4010F) },
	func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(int64(testDataBase)+0x300-0xD4010F))
		a.AluRM(isa.XOR, isa.RDX, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 0xD4010F})
	},
	func(a *isa.Asm) { a.Imul3(isa.RSI, isa.RBX, 0xD4010F) },
	func(a *isa.Asm) { a.AluRI(isa.CMP, isa.R8, 0xD4010F) },
	func(a *isa.Asm) { a.MovRI64(isa.R9, 0x11_0FD4010F_22) },
	func(a *isa.Asm) { // ModRM 0F: reg RCX, r/m [rdi]
		a.MovRI32(isa.RDI, int32(testDataBase+0x100))
		a.Imul3M(isa.RCX, isa.Mem{Base: isa.RDI, Index: isa.NoReg, Scale: 1}, 0x2222D401)
	},
	func(a *isa.Asm) { // SIB 0F: index RCX, base RDI
		a.Lea(isa.RBX, isa.Mem{Base: isa.RDI, Index: isa.RCX, Scale: 1, Disp: 0xD401})
	},
	func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(testDataBase+0x40))
		a.AluMI(isa.ADD, isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1}, 0xD4010F)
	},
	func(a *isa.Asm) {
		a.MovRI32(isa.RAX, int32(testDataBase+0x80))
		a.MovMI32(isa.Mem{Base: isa.RAX, Index: isa.NoReg, Scale: 1, Disp: 8}, 0xD4010F)
	},
}

// plantedProgram returns a RandomProgram of at least size bytes from seed
// with form's bytes inserted before its (pos mod n)th instruction.
func plantedProgram(t *testing.T, seed int64, size int, form func(a *isa.Asm), pos int) []byte {
	t.Helper()
	code := RandomProgram(rand.New(rand.NewSource(seed)), size, testDataBase, testDataLen)
	insts, err := isa.DecodeAll(code)
	if err != nil {
		t.Fatal(err)
	}
	off := 0
	for _, in := range insts[:pos%len(insts)] {
		off += in.Len
	}
	var a isa.Asm
	form(&a)
	return append(append(append([]byte(nil), code[:off]...), a.Bytes()...), code[off:]...)
}

// FuzzRewrite plants a runnable Table 3 form into a seeded RandomProgram
// and holds the rewrite to the defense's claims: it succeeds, keeps the
// code length, leaves no pattern in the code or the rewriting page, and
// the rewritten program ends in the original's state (runBoth: registers,
// ZF/SF, data outside the stack scratch window, and no VMFUNC executed).
func FuzzRewrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint16, form uint8, pos uint16) {
		code := plantedProgram(t, seed, int(size%2048), runnableForms[int(form)%len(runnableForms)], int(pos))
		res, err := New(testCodeBase).Rewrite(code)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Code) != len(code) {
			t.Fatalf("code length changed: %d -> %d", len(code), len(res.Code))
		}
		if len(FindPattern(res.Code))+len(FindPattern(res.RewritePage)) != 0 {
			t.Fatal("pattern survives")
		}
		runBoth(t, code, res, seed)
	})
}
