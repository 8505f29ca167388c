package tracecheck_test

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"

	"systrace/internal/epoxie"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/tracecheck"
	"systrace/internal/verify"
)

// conformModule builds a program that exercises every terminator kind
// the checker tracks: branches and loops, direct calls and returns, a
// function-pointer call (jalr), and word/subword memory traffic.
func conformModule() *m.Module {
	mod := m.NewModule("conform")
	mod.Global("arr", 256)
	inc := mod.Func("inc", m.TInt)
	inc.Param("x", m.TInt)
	inc.Code(func(bl *m.Block) { bl.Return(m.Add(m.V("x"), m.I(1))) })
	dbl := mod.Func("dbl", m.TInt)
	dbl.Param("x", m.TInt)
	dbl.Code(func(bl *m.Block) { bl.Return(m.Mul(m.V("x"), m.I(2))) })
	mod.DataAddrs("ops", []string{"inc", "dbl"})
	f := mod.Func("main", m.TInt)
	f.Locals("i", "acc")
	f.Code(func(bl *m.Block) {
		bl.Assign("acc", m.I(0))
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.StoreW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))), m.Mul(m.V("i"), m.I(3)))
			bl.StoreB(m.Add(m.Addr("arr", 128), m.V("i")), m.V("i"))
			bl.Assign("acc", m.Add(m.V("acc"),
				m.LoadW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))))))
		})
		bl.For("i", m.I(0), m.I(4), func(bl *m.Block) {
			bl.Assign("acc", m.CallVia(
				m.LoadW(m.Add(m.Addr("ops", 0), m.Mul(m.And(m.V("i"), m.I(1)), m.I(4)))),
				m.V("acc")))
		})
		bl.Return(m.Call("inc", m.V("acc")))
	})
	return mod
}

// buildConform instruments the module for the bare runtime and runs
// it, returning the build and the raw trace it produced.
func buildConform(t *testing.T) (*epoxie.Build, []uint32) {
	t.Helper()
	o, err := conformModule().Compile(m.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	b, err := epoxie.BuildInstrumented([]*obj.File{sim.TracedStartObj(), o}, link.Options{
		Name:     "conform",
		TextBase: sim.BareTextBase,
		DataBase: sim.BareDataBase,
	}, epoxie.Config{}, epoxie.BareRuntime)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	mach := sim.NewBareMachine(b.Instr)
	if err := mach.Run(100_000_000); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	words := sim.TraceWords(mach)
	if len(words) == 0 {
		t.Fatal("traced run produced no trace")
	}
	return b, words
}

// runChecker checks words against the build as user pid 0.
func runChecker(t *testing.T, b *epoxie.Build, words []uint32) *tracecheck.Result {
	t.Helper()
	c := tracecheck.New("test")
	if err := c.AddProcess(0, b.Instr); err != nil {
		t.Fatalf("AddProcess: %v", err)
	}
	c.Check(words)
	return c.Finish()
}

// pos classifies one word of a known-good trace.
type pos struct {
	idx    int
	record bool
	ib     *obj.InstrBlock
	memIdx int
}

// classify walks a clean single-stream trace with the side table and
// labels each word as a record or the Nth effective address of its
// block.
func classify(t *testing.T, b *epoxie.Build, words []uint32) []pos {
	t.Helper()
	tbl := trace.NewSideTable(b.Instr.Instr.Blocks)
	var out []pos
	var open *obj.InstrBlock
	mem := 0
	for i, w := range words {
		if trace.IsMarker(w) {
			t.Fatalf("unexpected marker 0x%08x in bare trace", w)
		}
		if open != nil && mem < len(open.Mem) {
			out = append(out, pos{idx: i, ib: open, memIdx: mem})
			mem++
			continue
		}
		ib := tbl.Lookup(w)
		if ib == nil {
			t.Fatalf("word %d (0x%08x): not a record", i, w)
		}
		out = append(out, pos{idx: i, record: true, ib: ib})
		open, mem = ib, 0
	}
	return out
}

func find(ps []pos, want func(pos) bool) pos {
	for _, p := range ps {
		if want(p) {
			return p
		}
	}
	return pos{idx: -1}
}

func mutate(words []uint32, idx int, w uint32) []uint32 {
	out := append([]uint32(nil), words...)
	out[idx] = w
	return out
}

// firstRule asserts the result's first diagnostic fires rule.
func firstRule(t *testing.T, res *tracecheck.Result, rule string) {
	t.Helper()
	if len(res.Diags) == 0 {
		t.Fatalf("expected a %s diagnostic, stream checked clean", rule)
	}
	if res.Diags[0].Rule != rule {
		t.Fatalf("first diagnostic: got %v, want rule %s", res.Diags[0], rule)
	}
}

func TestConformanceClean(t *testing.T) {
	b, words := buildConform(t)
	res := runChecker(t, b, words)
	if !res.Clean() {
		t.Fatalf("known-good trace not clean: %v", res.Diags)
	}
	ps := classify(t, b, words)
	recs := 0
	for _, p := range ps {
		if p.record {
			recs++
		}
	}
	if res.Records != uint64(recs) {
		t.Errorf("Records = %d, classify found %d", res.Records, recs)
	}
	if res.Words != uint64(len(words)) {
		t.Errorf("Words = %d, want %d", res.Words, len(words))
	}
	if res.MemRefs != uint64(len(words)-recs) {
		t.Errorf("MemRefs = %d, want %d", res.MemRefs, len(words)-recs)
	}
	// The same stream must satisfy the parser — the checker accepts a
	// superset of nothing: what parses must conform.
	p := trace.NewParser(nil)
	p.AddProcess(0, trace.NewSideTable(b.Instr.Instr.Blocks))
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatalf("parser rejects the same stream: %v", err)
	}
	if err := p.Finish(); err != nil {
		t.Fatalf("parser finish: %v", err)
	}
}

func TestConformanceIncremental(t *testing.T) {
	b, words := buildConform(t)
	whole := runChecker(t, b, words)
	c := tracecheck.New("test")
	if err := c.AddProcess(0, b.Instr); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(words); i += 7 {
		end := i + 7
		if end > len(words) {
			end = len(words)
		}
		c.Check(words[i:end])
	}
	chunked := c.Finish()
	if !chunked.Clean() {
		t.Fatalf("chunked check not clean: %v", chunked.Diags)
	}
	if whole.Records != chunked.Records || whole.Words != chunked.Words ||
		whole.MemRefs != chunked.MemRefs {
		t.Errorf("chunked counters differ: %+v vs %+v", whole, chunked)
	}
}

// TestCheckCompressed: the checker's own wire decode must see exactly
// what Check sees over the same epochs, each encoded from a fresh codec
// state, and an epoch it cannot decode must come back as a
// *trace.StreamError without costing the epochs after it.
func TestCheckCompressed(t *testing.T) {
	b, words := buildConform(t)
	newChecker := func() *tracecheck.Checker {
		c := tracecheck.New("test")
		if err := c.AddProcess(0, b.Instr); err != nil {
			t.Fatal(err)
		}
		return c
	}
	raw, wire := newChecker(), newChecker()
	enc := trace.NewEncoder()
	var epochs [][]byte
	for i := 0; i < len(words); i += 97 {
		chunk := words[i:min(i+97, len(words))]
		raw.Check(chunk)
		enc.Reset()
		epoch := enc.Encode(chunk, nil)
		epochs = append(epochs, epoch)
		if err := wire.CheckCompressed(epoch); err != nil {
			t.Fatalf("epoch %d: %v", len(epochs)-1, err)
		}
	}
	if len(epochs) < 2 {
		t.Fatalf("trace of %d words cut into %d epochs, want several", len(words), len(epochs))
	}
	want, got := raw.Finish(), wire.Finish()
	if !want.Clean() {
		t.Fatalf("raw check not clean: %v", want.Diags)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("CheckCompressed result %+v, Check over the same chunks %+v", got, want)
	}

	bad := newChecker()
	if err := bad.CheckCompressed(epochs[0]); err != nil {
		t.Fatalf("first epoch: %v", err)
	}
	corrupt := append([]byte{0xe0}, epochs[1][1:]...) // a reserved token
	var se *trace.StreamError
	if err := bad.CheckCompressed(corrupt); !errors.As(err, &se) {
		t.Errorf("undecodable epoch: err = %v, want a *trace.StreamError", err)
	}
	if err := bad.CheckCompressed(epochs[1]); err != nil {
		t.Errorf("the intact epoch after the undecodable one: %v", err)
	}
}

// TestConformanceKernelMarkers validates the kernel-protocol handling
// on a synthetic whole-system interleaving: kernel entry/exit and a
// nested exception wrapped around the user stream (zero kernel records
// is a legal kernel episode). The parser must agree.
func TestConformanceKernelMarkers(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	// A between-blocks boundary (a record position) and a mid-block
	// position (an EA position).
	bound := find(ps, func(p pos) bool { return p.record && p.idx > 0 })
	mid := find(ps, func(p pos) bool { return !p.record })
	if bound.idx < 0 || mid.idx < 0 {
		t.Fatal("no suitable positions")
	}
	var syn []uint32
	for i, w := range words {
		if i == bound.idx {
			syn = append(syn, trace.MarkKernEnter, trace.MarkKernExit|0)
		}
		if i == mid.idx {
			syn = append(syn, trace.MarkExcEnter, trace.MarkExcExit)
		}
		syn = append(syn, w)
	}
	res := runChecker(t, b, syn)
	if !res.Clean() {
		t.Fatalf("synthetic kernel interleaving not clean: %v", res.Diags)
	}
	if res.Markers != 4 {
		t.Errorf("Markers = %d, want 4", res.Markers)
	}
	p := trace.NewParser(nil)
	p.AddProcess(0, trace.NewSideTable(b.Instr.Instr.Blocks))
	if _, err := p.Parse(syn, nil); err != nil {
		t.Fatalf("parser rejects the synthetic stream: %v", err)
	}
}

func TestMutationRecord(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	p := find(ps, func(p pos) bool { return p.record })
	res := runChecker(t, b, mutate(words, p.idx, 0x00000bad&^3))
	firstRule(t, res, tracecheck.RuleRecord)
	if res.Diags[0].Offset != p.idx {
		t.Errorf("diag at word %d, want %d", res.Diags[0].Offset, p.idx)
	}
}

func TestMutationCFGEdge(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	// Substitute one record with another valid record of equal
	// reference count (so the stream stays in step) that is not a
	// legal successor at that point.
	var recs []uint32
	for _, ib := range b.Instr.Instr.Blocks {
		recs = append(recs, ib.RecordAddr)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i] < recs[j] })
	tbl := trace.NewSideTable(b.Instr.Instr.Blocks)
	for _, p := range ps {
		if !p.record {
			continue
		}
		for _, r := range recs {
			if r == words[p.idx] || len(tbl.Lookup(r).Mem) != len(p.ib.Mem) {
				continue
			}
			res := runChecker(t, b, mutate(words, p.idx, r))
			if len(res.Diags) > 0 && res.Diags[0].Rule == tracecheck.RuleCFGEdge {
				if res.Diags[0].Offset != p.idx {
					t.Errorf("diag at word %d, want %d", res.Diags[0].Offset, p.idx)
				}
				return
			}
		}
	}
	t.Fatal("no single-record substitution triggered cfg-edge")
}

func TestMutationMemCount(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	p := find(ps, func(p pos) bool { return p.record && len(p.ib.Mem) > 0 })
	if p.idx < 0 {
		t.Fatal("no record with memory references")
	}
	res := runChecker(t, b, words[:p.idx+1]) // cut off the block's EAs
	firstRule(t, res, tracecheck.RuleMemCount)
	if len(res.Diags) != 1 {
		t.Errorf("want exactly one diagnostic, got %v", res.Diags)
	}
}

func TestMutationMemAddr(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	t.Run("unaligned", func(t *testing.T) {
		p := find(ps, func(p pos) bool { return !p.record && p.ib.Mem[p.memIdx].Size == 4 })
		if p.idx < 0 {
			t.Fatal("no word-sized reference")
		}
		res := runChecker(t, b, mutate(words, p.idx, words[p.idx]|1))
		firstRule(t, res, tracecheck.RuleMemAddr)
	})
	t.Run("store-into-text", func(t *testing.T) {
		p := find(ps, func(p pos) bool {
			return !p.record && !p.ib.Mem[p.memIdx].Load && p.ib.Mem[p.memIdx].Size == 4
		})
		if p.idx < 0 {
			t.Fatal("no word-sized store")
		}
		res := runChecker(t, b, mutate(words, p.idx, b.Instr.TextBase))
		firstRule(t, res, tracecheck.RuleMemAddr)
	})
}

func TestMutationNest(t *testing.T) {
	b, words := buildConform(t)
	t.Run("exit-empty-stack", func(t *testing.T) {
		res := runChecker(t, b, append([]uint32{trace.MarkExcExit}, words...))
		firstRule(t, res, tracecheck.RuleNest)
	})
	t.Run("truncated-mid-nest", func(t *testing.T) {
		res := runChecker(t, b, append(append([]uint32(nil), words...), trace.MarkExcEnter))
		firstRule(t, res, tracecheck.RuleNest)
	})
}

func TestMutationSched(t *testing.T) {
	b, words := buildConform(t)
	res := runChecker(t, b, append([]uint32{trace.MarkCtxSw | 7}, words...))
	firstRule(t, res, tracecheck.RuleSched)
	if len(res.Diags) != 1 {
		t.Errorf("unknown-space episode should report once, got %v", res.Diags)
	}
}

func TestMutationEpoch(t *testing.T) {
	b, words := buildConform(t)
	t.Run("modesw-in-user", func(t *testing.T) {
		res := runChecker(t, b, append([]uint32{trace.MarkModeSw}, words...))
		firstRule(t, res, tracecheck.RuleEpoch)
	})
	t.Run("unknown-marker", func(t *testing.T) {
		res := runChecker(t, b, append([]uint32{0xfff80000}, words...))
		firstRule(t, res, tracecheck.RuleEpoch)
	})
}

func TestMutationSpecial(t *testing.T) {
	cases := []struct {
		name string
		flag obj.BBFlags
	}{
		{"utlb-handler", obj.BBUTLBHandler},
		{"idle-loop-in-user", obj.BBIdleLoop},
		{"counter-stop-while-off", obj.BBCounterStop},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b, words := buildConform(t)
			ps := classify(t, b, words)
			p := find(ps, func(p pos) bool { return p.record })
			p.ib.Flags |= tc.flag // corrupt the side table in place
			res := runChecker(t, b, words)
			firstRule(t, res, tracecheck.RuleSpecial)
			if res.Diags[0].Offset != p.idx {
				t.Errorf("diag at word %d, want %d", res.Diags[0].Offset, p.idx)
			}
		})
	}
}

// TestDiagnosticsDeterministic re-checks a corrupted stream and
// demands identical findings.
func TestDiagnosticsDeterministic(t *testing.T) {
	b, words := buildConform(t)
	ps := classify(t, b, words)
	p := find(ps, func(p pos) bool { return p.record })
	bad := mutate(words, p.idx, 0x00000bb0)
	r1 := runChecker(t, b, bad)
	r2 := runChecker(t, b, bad)
	if !reflect.DeepEqual(r1.Diags, r2.Diags) {
		t.Fatalf("diagnostics differ between runs:\n%v\n%v", r1.Diags, r2.Diags)
	}
}

// TestMetricsRegister checks the telemetry surface: a clean stream
// registers zero diagnostics and the full record count.
func TestMetricsRegister(t *testing.T) {
	b, words := buildConform(t)
	res := runChecker(t, b, words)
	reg := telemetry.New()
	res.RegisterMetrics(reg, telemetry.L("workload", "conform"))
	var diags, recs float64
	for _, s := range reg.Snapshot().Metrics {
		switch s.Name {
		case "tracecheck_diags_total":
			diags += s.Value
		case "tracecheck_records_total":
			recs += s.Value
		}
	}
	if diags != 0 {
		t.Errorf("tracecheck_diags_total = %v, want 0", diags)
	}
	if recs != float64(res.Records) {
		t.Errorf("tracecheck_records_total = %v, want %d", recs, res.Records)
	}
}

// TestSharedCFGConcurrentCheckers checks one stream with several
// checkers at once over a single CFG, the way concurrent experiment
// runs share the cached graph of an image. Run under -race it fails if
// the CFG's Reach memo is written without synchronization; every
// checker must also reach the sequential checker's verdict.
func TestSharedCFGConcurrentCheckers(t *testing.T) {
	b, words := buildConform(t)
	want := runChecker(t, b, words)
	g, err := verify.NewCFG(b.Instr)
	if err != nil {
		t.Fatal(err)
	}
	res := make([]*tracecheck.Result, 4)
	var wg sync.WaitGroup
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := tracecheck.New("test")
			c.AddProcessCFG(0, g)
			c.Check(words)
			res[i] = c.Finish()
		}(i)
	}
	wg.Wait()
	for i, r := range res {
		if !r.Clean() || r.Records != want.Records || !reflect.DeepEqual(r.Checks, want.Checks) {
			t.Errorf("checker %d: %d records, checks %v, %d diags; want %d records, checks %v, clean",
				i, r.Records, r.Checks, len(r.Diags), want.Records, want.Checks)
		}
	}
}
