package isa_test

import (
	"bytes"
	"testing"

	"skybridge/internal/isa"
)

// FuzzDecode holds the decoder to the encoder. Any input either fails to
// decode or gives an instruction whose Raw is the first Len input bytes,
// whose present fields (opcode, ModRM, SIB, displacement, immediate) lie
// inside [0, Len) in encoding order, and which Encode re-emits as one
// instruction that decodes back to the same operation and operands. A NOP
// is the exception: it re-encodes as Len one-byte NOPs.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		in, err := isa.Decode(b)
		if err != nil {
			return
		}
		if in.Len < 1 || in.Len > len(b) || !bytes.Equal(in.Raw, b[:in.Len]) {
			t.Fatalf("% x: Len %d, Raw % x", b, in.Len, in.Raw)
		}
		end := 0
		for _, fd := range []struct{ off, n int }{
			{in.OpcodeOff, in.OpcodeLen}, {in.ModRMOff, 1}, {in.SIBOff, 1},
			{in.DispOff, in.DispLen}, {in.ImmOff, in.ImmLen},
		} {
			if fd.off < 0 {
				continue
			}
			if fd.off < end || fd.n < 1 || fd.off+fd.n > in.Len {
				t.Fatalf("% x: field at +%d (%d bytes) out of order or outside %d bytes: %+v", in.Raw, fd.off, fd.n, in.Len, in)
			}
			end = fd.off + fd.n
		}
		var a isa.Asm
		if err := a.Encode(in); err != nil {
			t.Fatalf("% x (%v): %v", in.Raw, in, err)
		}
		if in.Op == isa.NOP {
			if !bytes.Equal(a.Bytes(), bytes.Repeat([]byte{0x90}, in.Len)) {
				t.Fatalf("% x: NOP re-encoded as % x", in.Raw, a.Bytes())
			}
			return
		}
		out, err := isa.Decode(a.Bytes())
		if err != nil || out.Len != a.Len() {
			t.Fatalf("% x (%v) re-encoded as % x: decodes to %v (%d bytes), %v", in.Raw, in, a.Bytes(), out, out.Len, err)
		}
		if out.Op != in.Op || out.Dst != in.Dst || out.Src != in.Src || out.M != in.M ||
			out.HasMem != in.HasMem || out.MemIsDst != in.MemIsDst || out.Imm != in.Imm ||
			out.HasImm != in.HasImm || out.Rel != in.Rel || out.Cond != in.Cond || out.Bits32 != in.Bits32 {
			t.Fatalf("% x re-encoded as % x: operands moved\n got %+v\nwant %+v", in.Raw, a.Bytes(), out, in)
		}
	})
}
