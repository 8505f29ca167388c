package link_test

import (
	"testing"

	"systrace/internal/asm"
	"systrace/internal/isa"
	"systrace/internal/link"
	"systrace/internal/obj"
	"systrace/internal/sim"
)

func obj1(t *testing.T) *obj.File {
	a := asm.New("a")
	a.Func("_start", 0)
	a.JalSym("ext")
	a.I(isa.NOP)
	a.LA(isa.RegT0, "shared", 4)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func obj2(t *testing.T) *obj.File {
	a := asm.New("b")
	a.Func("ext", 0)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	a.DataBytes("shared", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCrossObjectResolution(t *testing.T) {
	e, err := link.Link([]*obj.File{obj1(t), obj2(t)}, link.Options{
		Name: "t", TextBase: 0x80001000, DataBase: 0x80100000,
	})
	if err != nil {
		t.Fatal(err)
	}
	ext := symbol(t, e, "ext")
	// The jal at word 0 must target ext.
	j := e.Text[0]
	if target := e.TextBase&0xf0000000 | uint32(j)<<2&0x0ffffffc; target != ext {
		t.Errorf("jal target 0x%x want 0x%x", target, ext)
	}
	// LA must resolve shared+4.
	shared := symbol(t, e, "shared")
	lui, addiu := e.Text[2], e.Text[3]
	got := (uint32(uint16(lui)) << 16) + uint32(int32(int16(addiu)))
	if got != shared+4 {
		t.Errorf("la resolved 0x%x want 0x%x", got, shared+4)
	}
}

func TestDuplicateAndUndefined(t *testing.T) {
	if _, err := link.Link([]*obj.File{obj1(t)}, link.Options{
		Name: "t", TextBase: 0x80001000, DataBase: 0x80100000,
	}); err == nil {
		t.Error("undefined symbol accepted")
	}
	if _, err := link.Link([]*obj.File{obj2(t), obj2(t)}, link.Options{
		Name: "t", Entry: "ext", TextBase: 0x80001000, DataBase: 0x80100000,
	}); err == nil {
		t.Error("duplicate symbol accepted")
	}
}

func TestLinkedProgramRuns(t *testing.T) {
	// End to end: assembler -> linker -> interpreter.
	a := asm.New("m")
	a.Func("main", 0)
	a.LI(isa.RegV0, 123)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.BuildBare("t", f)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := sim.RunResult(e, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 123 {
		t.Errorf("got %d", v)
	}
}

// symbol returns the address of the named symbol in e, failing the
// test if e has none.
func symbol(t testing.TB, e *obj.Executable, name string) uint32 {
	t.Helper()
	a, ok := e.Symbol(name)
	if !ok {
		t.Fatalf("executable %s: no symbol %q", e.Name, name)
	}
	return a
}
