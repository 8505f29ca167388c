package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systrace/internal/asm"
	"systrace/internal/dataflow"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/tracecheck"
	"systrace/internal/verify"
)

// instrument builds objects into a bare-runtime instrumented image.
func instrument(t *testing.T, f *obj.File) *obj.Executable {
	t.Helper()
	b, err := epoxie.BuildInstrumented(
		[]*obj.File{sim.TracedStartObj(), f},
		link.Options{Name: "lintprog", TextBase: sim.BareTextBase, DataBase: sim.BareDataBase},
		epoxie.Config{}, epoxie.BareRuntime)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return b.Instr
}

// loopExe is a compiled summing loop.
func loopExe(t *testing.T) *obj.Executable {
	t.Helper()
	mod := m.NewModule("lintprog")
	f := mod.Func("main", m.TInt)
	f.Locals("i", "sum")
	f.Code(func(bl *m.Block) {
		bl.Assign("sum", m.I(0))
		bl.For("i", m.I(0), m.I(8), func(bl *m.Block) {
			bl.Assign("sum", m.Add(m.V("sum"), m.V("i")))
		})
		bl.Return(m.V("sum"))
	})
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return instrument(t, o)
}

func writeExe(t *testing.T, e *obj.Executable) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), e.Name+".exe")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Encode(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// wantExit runs the command and fails the test unless it exits code.
func wantExit(t *testing.T, code int, args ...string) (stdout string) {
	t.Helper()
	var out, errb bytes.Buffer
	if got := run(args, &out, &errb); got != code {
		t.Fatalf("lint %v: exit %d, want %d; stderr: %s stdout: %s", args, got, code, errb.String(), out.String())
	}
	return out.String()
}

func TestStaticCleanFile(t *testing.T) {
	out := wantExit(t, 0, "-pass", "static", writeExe(t, loopExe(t)))
	if !strings.Contains(out, "0 diagnostics") {
		t.Errorf("summary missing: %s", out)
	}
}

func TestStaticCorruptedFileJSON(t *testing.T) {
	e := loopExe(t)
	// Knock out the first instrumented block head.
	for _, b := range e.Blocks {
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0 {
			e.Text[(b.Addr-e.TextBase)/4] = isa.NOP
			break
		}
	}
	out := wantExit(t, 1, "-pass", "static", "-json", writeExe(t, e))
	var reports []struct {
		Name  string        `json:"name"`
		Diags []verify.Diag `json:"diags"`
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || len(reports[0].Diags) == 0 {
		t.Fatalf("want one report with diagnostics, got %+v", reports)
	}
	if reports[0].Diags[0].Rule != verify.RuleBBHead {
		t.Errorf("rule = %s, want %s", reports[0].Diags[0].Rule, verify.RuleBBHead)
	}
}

func TestStaticCorpusSingle(t *testing.T) {
	if out := wantExit(t, 0, "-pass", "static", "-q", "-workload", "lisp", "-runtime", "bare"); out != "" {
		t.Errorf("quiet clean run produced output: %s", out)
	}
}

func TestStaticBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-runtime", "nosuch"},
		{filepath.Join(t.TempDir(), "missing.exe")},
		{"-compress"},
		{"-os", "mach"},
		{"-seed", "2"},
		{"-workload", "sed", filepath.Join(t.TempDir(), "any.exe")},
	} {
		wantExit(t, 2, append([]string{"-pass", "static"}, args...)...)
	}
	wantExit(t, 2)
	wantExit(t, 2, "-pass", "nosuch")
}

// guestLint runs the guest pass over e and returns its one result.
func guestLint(t *testing.T, e *obj.Executable, code int) *dataflow.LintResult {
	t.Helper()
	out := wantExit(t, code, "-pass", "guest", "-json", writeExe(t, e))
	var rs []*dataflow.LintResult
	if err := json.Unmarshal([]byte(out), &rs); err != nil || len(rs) != 1 {
		t.Fatalf("want one result (%v):\n%s", err, out)
	}
	return rs[0]
}

// assertFires requires the named check to fire and returns its first
// diagnostic. Other checks may legitimately cascade on a mutated image
// (a retargeted branch also orphans its original successor), so they
// are not failures.
func assertFires(t *testing.T, r *dataflow.LintResult, check string) dataflow.LintDiag {
	t.Helper()
	for i := range r.Diags {
		if r.Diags[i].Check == check {
			return r.Diags[i]
		}
	}
	t.Fatalf("check %s never fired (diags: %v)", check, r.Diags)
	return dataflow.LintDiag{}
}

// cleanObj is a well-formed leaf function.
func cleanObj() *obj.File {
	a := asm.New("clean")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(0x10000-16)))
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 7))
	a.I(isa.SW(isa.RegT0, isa.RegSP, 4))
	a.I(isa.LW(isa.RegV0, isa.RegSP, 4))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 16))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	return a.MustFinish()
}

func TestGuestCleanImage(t *testing.T) {
	r := guestLint(t, instrument(t, cleanObj()), 0)
	for _, d := range r.Diags {
		t.Errorf("diagnostic on clean image: %s", d)
	}
	for _, c := range []string{dataflow.LintUnreachable, dataflow.LintInterior,
		dataflow.LintStackBalance, dataflow.LintWildStore} {
		if r.Checks[c] == 0 {
			t.Errorf("check %s never exercised on the clean image", c)
		}
	}
}

// TestGuestUnreachable: code jumped over by an unconditional j and
// reached by nothing else.
func TestGuestUnreachable(t *testing.T) {
	a := asm.New("dead")
	a.Func("main", 0)
	a.Jmp("out")
	a.I(isa.NOP)
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 1)) // dead block
	a.I(isa.ADDIU(isa.RegT0, isa.RegT0, 2))
	a.Label("out")
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	d := assertFires(t, guestLint(t, instrument(t, a.MustFinish()), 1), dataflow.LintUnreachable)
	if !strings.Contains(d.Msg, "unreachable") {
		t.Errorf("wrong diagnostic: %s", d.Msg)
	}
}

// TestGuestInterior: a branch retargeted one instruction past a block
// boundary, into the middle of an instrumentation group.
func TestGuestInterior(t *testing.T) {
	a := asm.New("interior")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 1))
	a.Br(isa.BNE(isa.RegT0, isa.RegZero, 0), "join")
	a.I(isa.NOP)
	a.I(isa.ADDIU(isa.RegT1, isa.RegZero, 2))
	a.Label("join")
	a.I(isa.SW(isa.RegT0, isa.RegSP, 0))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	e := instrument(t, a.MustFinish())

	// Find main's rewritten bne and push its target one word forward.
	var at uint32
	for _, eb := range e.Blocks {
		if e.FuncName(eb.Addr) != "main" {
			continue
		}
		for k := int32(0); k < eb.NInstr; k++ {
			addr := eb.Addr + uint32(k)*4
			w := e.Text[(addr-e.TextBase)/4]
			if isa.IsBranch(w) && w>>26 == isa.OpBNE {
				at = addr
			}
		}
	}
	if at == 0 {
		t.Fatal("no bne found in instrumented text")
	}
	w := e.Text[(at-e.TextBase)/4]
	e.Text[(at-e.TextBase)/4] = w&0xffff0000 | (w+1)&0xffff

	d := assertFires(t, guestLint(t, e, 1), dataflow.LintInterior)
	if !strings.Contains(d.Msg, "interior") {
		t.Errorf("wrong diagnostic: %s", d.Msg)
	}
}

// TestGuestStackBalance: a function that pushes a frame and returns
// without popping it.
func TestGuestStackBalance(t *testing.T) {
	a := asm.New("leak")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(0x10000-32)))
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 1))
	a.I(isa.SW(isa.RegT0, isa.RegSP, 0))
	a.I(isa.JR(isa.RegRA)) // frame never popped
	a.I(isa.NOP)
	d := assertFires(t, guestLint(t, instrument(t, a.MustFinish()), 1), dataflow.LintStackBalance)
	if !strings.Contains(d.Msg, "-32 bytes") {
		t.Errorf("wrong diagnostic: %s", d.Msg)
	}
}

// TestGuestWildStore: stores through provably constant wild addresses.
func TestGuestWildStore(t *testing.T) {
	a := asm.New("wild")
	a.Func("main", 0)
	a.I(isa.LUI(isa.RegT0, 0))
	a.I(isa.SW(isa.RegZero, isa.RegT0, 0x10)) // null page
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	d := assertFires(t, guestLint(t, instrument(t, a.MustFinish()), 1), dataflow.LintWildStore)
	if !strings.Contains(d.Msg, "null page") {
		t.Errorf("wrong diagnostic: %s", d.Msg)
	}
}

// TestGuestCorpusSingle drives the pass end to end on one workload.
func TestGuestCorpusSingle(t *testing.T) {
	if out := wantExit(t, 0, "-pass", "guest", "-workload", "sed", "-runtime", "bare"); !strings.Contains(out, "sed/bare:") {
		t.Errorf("missing summary line: %q", out)
	}
}

func TestGuestJSON(t *testing.T) {
	out := wantExit(t, 0, "-pass", "guest", "-workload", "sed", "-runtime", "bare", "-json")
	var reports []struct {
		Runtime string `json:"runtime"`
		*dataflow.LintResult
	}
	if err := json.Unmarshal([]byte(out), &reports); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(reports) != 1 || reports[0].Runtime != "bare" || !reports[0].Clean() {
		t.Errorf("unexpected reports: %+v", reports)
	}
}

func TestGuestUsageErrors(t *testing.T) {
	wantExit(t, 2, "-pass", "guest", "-workload", "nope")
	wantExit(t, 2, "-pass", "guest", "-runtime", "nope")
	wantExit(t, 2, "-pass", "guest", "-compress")
}

func TestTraceBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nosuch"},
		{"-os", "nosuch"},
		{"stray"},
		{"-runtime", "bare"},
	} {
		wantExit(t, 2, append([]string{"-pass", "trace"}, args...)...)
	}
}

func TestTraceSingleStream(t *testing.T) {
	if out := wantExit(t, 0, "-pass", "trace", "-workload", "sed", "-os", "ultrix"); !strings.Contains(out, "0 diagnostics") {
		t.Errorf("summary missing: %s", out)
	}
}

func TestTraceSingleStreamJSON(t *testing.T) {
	out := wantExit(t, 0, "-pass", "trace", "-json", "-workload", "sed", "-os", "ultrix")
	var results []*tracecheck.Result
	if err := json.Unmarshal([]byte(out), &results); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if len(results) != 1 {
		t.Fatalf("want 1 result, got %d", len(results))
	}
	if r := results[0]; !r.Clean() || r.Words == 0 || r.Records == 0 {
		t.Errorf("unexpected result: %+v", r)
	}
}
