package sim_test

import (
	"testing"

	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
)

func TestRunResultAndReaders(t *testing.T) {
	mod := m.NewModule("tiny")
	mod.Data("msg", []byte{0xde, 0xad, 0xbe, 0xef})
	f := mod.Func("main", m.TInt)
	f.Code(func(b *m.Block) {
		b.Return(m.LoadW(m.Addr("msg", 0)))
	})
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.BuildBare("tiny", o)
	if err != nil {
		t.Fatal(err)
	}
	v, mach, err := sim.RunResult(e, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Fatalf("result 0x%x", v)
	}
	msg := symbol(t, e, "msg")
	if got := sim.ReadWord(mach, msg); got != 0xdeadbeef {
		t.Errorf("ReadWord 0x%x", got)
	}
	if got := sim.ReadBytes(mach, msg, 4); len(got) != 4 || got[0] != 0xde || got[3] != 0xef {
		t.Errorf("ReadBytes %x", got)
	}
	// Out-of-range reads fail cleanly instead of panicking on the host:
	// below kseg0, straddling or past the end of RAM, wrapping the
	// address space, or a negative length.
	end := uint32(0x80000000) + mach.RAM.Size()
	for _, c := range []struct {
		va uint32
		n  int
	}{
		{0x7ffffffe, 4}, {end - 2, 4}, {end, 1}, {0xffffffff, 2}, {msg, -1},
	} {
		if got := sim.ReadBytes(mach, c.va, c.n); got != nil {
			t.Errorf("ReadBytes(%#x, %d) = %x, want nil", c.va, c.n, got)
		}
	}
	if got := sim.ReadBytes(mach, end-4, 4); len(got) != 4 {
		t.Errorf("ReadBytes of RAM's last word = %x", got)
	}
	for _, va := range []uint32{0x7ffffffe, end - 2, 0xfffffffe} {
		if got := sim.ReadWord(mach, va); got != 0 {
			t.Errorf("ReadWord(%#x) = %#x, want 0", va, got)
		}
	}
}

func TestBuildBareRejectsMissingMain(t *testing.T) {
	mod := m.NewModule("nomain")
	f := mod.Func("helper", m.TInt)
	f.Code(func(b *m.Block) { b.Return(m.I(0)) })
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.BuildBare("nomain", o); err == nil {
		t.Error("link without main succeeded")
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
