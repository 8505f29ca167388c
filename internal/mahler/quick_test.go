package mahler_test

import (
	"math/rand"
	"testing"

	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
)

// Property test: random integer expression trees must evaluate to the
// same value on the simulated machine as a Go reference evaluator with
// identical 32-bit semantics.

type node struct {
	op    int // 0 = const, 1..n = binary op
	v     int32
	l, r  *node
	depth int
}

const nOps = 12

func genTree(r *rand.Rand, depth int) *node {
	if depth <= 0 || r.Intn(3) == 0 {
		// Mix small and large constants.
		var v int32
		switch r.Intn(3) {
		case 0:
			v = int32(r.Intn(200) - 100)
		case 1:
			v = int32(r.Uint32() & 0xffff)
		default:
			v = int32(r.Uint32())
		}
		return &node{op: 0, v: v}
	}
	return &node{
		op: 1 + r.Intn(nOps),
		l:  genTree(r, depth-1),
		r:  genTree(r, depth-1),
	}
}

func (n *node) expr() m.Expr {
	if n.op == 0 {
		return m.I(n.v)
	}
	l, r := n.l.expr(), n.r.expr()
	switch n.op {
	case 1:
		return m.Add(l, r)
	case 2:
		return m.Sub(l, r)
	case 3:
		return m.Mul(l, r)
	case 4:
		return m.And(l, r)
	case 5:
		return m.Or(l, r)
	case 6:
		return m.Xor(l, r)
	case 7:
		return m.Shl(l, m.And(r, m.I(31)))
	case 8:
		return m.Shr(l, m.And(r, m.I(31)))
	case 9:
		return m.Sar(l, m.And(r, m.I(31)))
	case 10:
		return m.Lt(l, r)
	case 11:
		return m.LtU(l, r)
	default:
		return m.Eq(l, r)
	}
}

func (n *node) eval() int32 {
	if n.op == 0 {
		return n.v
	}
	l, r := n.l.eval(), n.r.eval()
	b2i := func(b bool) int32 {
		if b {
			return 1
		}
		return 0
	}
	switch n.op {
	case 1:
		return l + r
	case 2:
		return l - r
	case 3:
		return l * r
	case 4:
		return l & r
	case 5:
		return l | r
	case 6:
		return l ^ r
	case 7:
		return int32(uint32(l) << (uint32(r) & 31))
	case 8:
		return int32(uint32(l) >> (uint32(r) & 31))
	case 9:
		return l >> (uint32(r) & 31)
	case 10:
		return b2i(l < r)
	case 11:
		return b2i(uint32(l) < uint32(r))
	default:
		return b2i(l == r)
	}
}

func TestExpressionPropertyAgainstInterpreter(t *testing.T) {
	r := rand.New(rand.NewSource(20260705))
	const perProgram = 16
	for round := 0; round < 6; round++ {
		trees := make([]*node, perProgram)
		mod := m.NewModule("qt")
		mod.Global("out", perProgram*4)
		f := mod.Func("main", m.TInt)
		f.Code(func(b *m.Block) {
			for i := range trees {
				trees[i] = genTree(r, 3)
				b.StoreW(m.Addr("out", int32(i*4)), trees[i].expr())
			}
			b.Return(m.I(1))
		})
		o, err := mod.Compile(m.Options{})
		if err != nil {
			t.Fatalf("round %d: compile: %v", round, err)
		}
		e, err := sim.BuildBare("qt", o)
		if err != nil {
			t.Fatal(err)
		}
		_, mach, err := sim.RunResult(e, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		outAddr := symbol(t, e, "out")
		for i, tr := range trees {
			want := uint32(tr.eval())
			got := sim.ReadWord(mach, outAddr+uint32(i*4))
			if got != want {
				t.Errorf("round %d expr %d: sim 0x%08x, reference 0x%08x", round, i, got, want)
			}
		}
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
