package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/machine"
	"systrace/internal/workload"
)

// table2Cycles pins every Table 2 cell in cycles (mach measured, mach
// predicted, ultrix measured, ultrix predicted). The artifact prints
// seconds to four decimals, 2500 cycles at 25 MHz, so a small shift in
// a run's timing would go unseen there.
var table2Cycles = map[string][4]uint64{
	"sed":      {5149983, 4972724, 4226900, 4119458},
	"egrep":    {7679222, 7362784, 6268506, 6077974},
	"yacc":     {2161643, 2092775, 1949379, 1880023},
	"gcc":      {1207688, 1136009, 875890, 835065},
	"compress": {30399470, 30294043, 27465216, 27787412},
	"espresso": {33060111, 32632142, 33003023, 31953101},
	"lisp":     {6497974, 6251839, 6395225, 6231249},
	"eqntott":  {6710557, 6584522, 6690108, 6525793},
	"fpppp":    {4818029, 4733047, 4808285, 4670545},
	"doduc":    {4540759, 4441901, 4402935, 4286053},
	"liv":      {2766177, 2921379, 2677392, 2621586},
	"tomcatv":  {7165066, 7221078, 7071416, 6827881},
}

// TestArtifact regenerates the whole suite's standard output and
// compares it byte for byte with the committed experiments_full.txt,
// then holds every Table 2 cell to the cycle. A change that moves a
// printed number regenerates the file (go run ./cmd/experiments >
// experiments_full.txt) and says why.
func TestArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("the full suite: every workload on both systems")
	}
	want, err := os.ReadFile("../../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	r := experiment.NewRunner(0)
	var out bytes.Buffer
	if err := experiments(&out, r, workload.All(), func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(out.String(), "\n")
	for i := 0; i < max(len(wl), len(gl)); i++ {
		if i >= len(wl) || i >= len(gl) || wl[i] != gl[i] {
			t.Errorf("stdout differs from experiments_full.txt from line %d on:\n%s",
				i+1, strings.Join(gl[min(i, len(gl)):], "\n"))
			break
		}
	}

	// Served from the suite's memo: no run repeats.
	rows, err := r.Table2(workload.All())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(table2Cycles) {
		t.Errorf("Table 2 has %d rows, %d pinned", len(rows), len(table2Cycles))
	}
	cyc := func(sec float64) uint64 { return uint64(math.Round(sec * machine.ClockHz)) }
	var got strings.Builder
	for _, row := range rows {
		cells := [4]uint64{cyc(row.MachMeasured), cyc(row.MachPredicted),
			cyc(row.UltrixMeasured), cyc(row.UltrixPredicted)}
		fmt.Fprintf(&got, "\t%q: {%d, %d, %d, %d},\n", row.Name, cells[0], cells[1], cells[2], cells[3])
		if w, ok := table2Cycles[row.Name]; !ok || w != cells {
			t.Errorf("%s: Table 2 cycles %v, want %v", row.Name, cells, w)
		}
	}
	if t.Failed() {
		t.Logf("Table 2 in cycles:\n%s", got.String())
	}
}

// TestRun checks the command's streams: the selected sections on
// stdout, the host-dependent runner statistics on stderr.
func TestRun(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-only", "cpi"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d; stderr: %s", code, errb.String())
	}
	if s := out.String(); !strings.HasPrefix(s, "== E10: kernel vs user CPI") || strings.Count(s, "==") != 2 {
		t.Errorf("stdout is not the E10 section alone:\n%s", s)
	}
	if s := errb.String(); !strings.HasPrefix(s, "runner: ") || !strings.HasSuffix(s, " workers\n") {
		t.Errorf("stderr is not the runner statistics line: %q", s)
	}
}

// TestUsageErrors: a malformed invocation exits 2 with nothing on
// stdout, before any simulation runs.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "nosuch"},
		{"-only", "table2,bogus"},
		{"-bogus"},
		{"extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("experiments %v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("experiments %v: wrote to stdout: %q", args, out.String())
		}
		if errb.Len() == 0 {
			t.Errorf("experiments %v: no message on stderr", args)
		}
	}
}
