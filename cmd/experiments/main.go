// Command experiments regenerates the paper's evaluation: Tables 1-3,
// Figures 1-3, the supporting measurements (text growth, time
// dilation, buffer sizing, kernel CPI, page-mapping variance, error
// anatomy, corruption detection) and the ablations of the design
// choices. Absolute numbers are scaled (the workloads are reduced so
// the suite simulates in seconds); the shape of each result is what is
// validated against the paper — see EXPERIMENTS.md.
//
// Standard output depends only on the simulation, never on the host:
// run without flags it is the committed experiments_full.txt, which
// TestArtifact regenerates and compares byte for byte. The runner's
// statistics, whose worker count depends on the host, go to standard
// error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

// ids are the experiment ids -only accepts, in print order.
var ids = []string{"figure1", "figure2", "table1", "table2", "figure3", "table3",
	"growth", "dilation", "buffer", "cpi", "variance", "errors", "corruption", "ablations"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run a 4-workload subset")
	only := fs.String("only", "", "comma-separated experiment ids (e.g. table2,figure3): "+strings.Join(ids, ", "))
	jobs := fs.Int("j", 0, "max simulations in flight (default GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected arguments %q\n", fs.Args())
		return 2
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id == "" {
			continue
		}
		if !slices.Contains(ids, id) {
			fmt.Fprintf(stderr, "experiments: unknown experiment id %q (want one of %s)\n", id, strings.Join(ids, ", "))
			return 2
		}
		want[id] = true
	}
	specs := workload.All()
	if *quick {
		specs = pick("sed", "compress", "lisp", "liv")
	}

	// One orchestrator for the whole suite: tables that share runs
	// (table2/table3, table1/dilation/cpi, figure1/dilation, errors)
	// pay for each unique simulation exactly once.
	runner := experiment.NewRunner(*jobs)
	err := experiments(stdout, runner, specs, func(id string) bool { return len(want) == 0 || want[id] })
	if s := runner.Stats(); s.Requested > 0 {
		fmt.Fprintf(stderr, "runner: %d runs requested, %d unique simulations executed (%d served from memo), %d workers\n",
			s.Requested, s.Executed, s.Deduplicated(), s.Workers)
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}
	return 0
}

// experiments prints to w, in the order of ids, each experiment whose
// id selected accepts, over specs; every simulation goes through
// runner.
func experiments(w io.Writer, runner *experiment.Runner, specs []workload.Spec, selected func(id string) bool) error {
	if selected("figure1") {
		fmt.Fprintln(w, "== Figure 1: tracing system overview (one traced run) ==")
		pred, err := runner.Predict(specs[0], experiment.Config{Flavor: kernel.Ultrix, Seed: 1})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "workload %s: %d trace words drained over %d analysis phases;\n",
			pred.Name, pred.TraceWords, pred.ModeSwitches)
		fmt.Fprintf(w, "  %d reconstructed references (kernel and user interleaved), %d idle-loop instructions\n\n",
			pred.Events, pred.IdleInstr)
	}

	if selected("figure2") {
		fmt.Fprintln(w, "== Figure 2: instrumentation by epoxie ==")
		f2, err := experiment.Figure2()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, f2)
	}

	if selected("table1") {
		fmt.Fprintln(w, "== Table 1: experimental workloads ==")
		rows, err := runner.Table1(specs)
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name, experiment.Sec(r.Seconds),
				strconv.FormatUint(r.Instr, 10), r.Description})
		}
		fmt.Fprintln(w, experiment.FormatTable(
			[]string{"workload", "sec", "instructions", "description"}, cells))
	}

	var t2 []experiment.Table2Row
	if selected("table2") || selected("figure3") {
		fmt.Fprintln(w, "== Table 2: run times, measured and predicted (seconds) ==")
		var err error
		if t2, err = runner.Table2(specs); err != nil {
			return err
		}
		var cells [][]string
		for _, r := range t2 {
			cells = append(cells, []string{r.Name,
				experiment.Sec(r.MachMeasured), experiment.Sec(r.MachPredicted),
				experiment.Sec(r.UltrixMeasured), experiment.Sec(r.UltrixPredicted)})
		}
		fmt.Fprintln(w, experiment.FormatTable(
			[]string{"workload", "mach meas", "mach pred", "ultrix meas", "ultrix pred"}, cells))
	}

	if selected("figure3") {
		fmt.Fprintln(w, "== Figure 3: error in predicted execution times (Ultrix) ==")
		for _, r := range experiment.Figure3(t2) {
			e := r.PercentError()
			bar := strings.Repeat("#", int(math.Abs(e)*2+0.5))
			fmt.Fprintf(w, "%-10s %+6.1f%% %s\n", r.Name, e, bar)
		}
		fmt.Fprintln(w)
	}

	if selected("table3") {
		fmt.Fprintln(w, "== Table 3: TLB misses, measured and predicted ==")
		rows, err := runner.Table3(specs)
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name,
				u(r.MachMeasured), u(r.MachPredicted),
				u(r.UltrixMeasured), u(r.UltrixPredicted)})
		}
		fmt.Fprintln(w, experiment.FormatTable(
			[]string{"workload", "mach meas", "mach pred", "ultrix meas", "ultrix pred"}, cells))
	}

	if selected("growth") {
		fmt.Fprintln(w, "== E7: text growth (epoxie 1.9-2.3x vs pixie/original 4-6x) ==")
		rows, err := experiment.TextGrowth(pick("gcc"))
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name, r.Tool,
				strconv.Itoa(int(r.OrigBytes)), strconv.Itoa(int(r.NewBytes)),
				fmt.Sprintf("%.2fx", r.Factor)})
		}
		fmt.Fprintln(w, experiment.FormatTable(
			[]string{"binary", "tool", "orig bytes", "instr bytes", "growth"}, cells))
	}

	if selected("dilation") {
		fmt.Fprintln(w, "== E8: time dilation (traced/untraced slowdown) ==")
		rows, err := runner.TimeDilation(pick("sed", "lisp"))
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s untraced %9d instr, traced %10d instr: %.1fx (clock %d -> %d cycles)\n",
				r.Name, r.UntracedInstr, r.TracedInstr, r.Factor, r.ClockUntraced, r.ClockTraced)
		}
		fmt.Fprintln(w)
	}

	if selected("buffer") {
		fmt.Fprintln(w, "== E9: in-kernel buffer sizing vs mode switches ==")
		rows, err := experiment.BufferSizing(pick("compress")[0], []uint32{256 << 10, 1 << 20, 4 << 20, 16 << 20})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "buffer %8d KB: %3d analysis phases, %.0f traced instructions per phase\n",
				r.BufBytes>>10, r.ModeSwitches, r.InstrPerPhase)
		}
		fmt.Fprintln(w)
	}

	if selected("cpi") {
		fmt.Fprintln(w, "== E10: kernel vs user CPI (the Tunix observation) ==")
		res, err := runner.KernelCPI(pick("sed")[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "kernel CPI %.2f, user CPI %.2f, ratio %.2f (kernel %d / user %d instructions)\n\n",
			res.KernelCPI, res.UserCPI, res.Ratio, res.KernelInstr, res.UserInstr)
	}

	if selected("variance") {
		fmt.Fprintln(w, "== E11: page-mapping variance under Mach's random policy ==")
		res, err := runner.PageMappingVariance(pick("tomcatv")[0], []uint32{3, 17, 91, 1234, 5555})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "tomcatv times: %v\n", res.Times)
		fmt.Fprintf(w, "spread %.1f%% with system activity only %.1f%% of instructions\n\n",
			res.SpreadPercent, res.SystemFraction*100)
	}

	if selected("errors") {
		fmt.Fprintln(w, "== E12: error anatomy for the paper's outliers ==")
		rows, err := runner.ErrorSources([]string{"sed", "compress", "liv"})
		if err != nil {
			return err
		}
		for _, r := range rows {
			fmt.Fprintf(w, "%-10s meas %.4fs pred %.4fs err %+5.1f%%  io-est %.4fs  fp-overlap %d cyc  wb-stalls %d cyc\n",
				r.Name, r.MeasuredSec, r.PredictedSec, r.ErrorPercent,
				r.IOStallsSec, r.FPOverlapCycles, r.WBStallCycles)
		}
		fmt.Fprintln(w)
	}

	if selected("corruption") {
		fmt.Fprintln(w, "== E13: trace corruption detection (§4.3 redundancy) ==")
		detected, total, err := experiment.CorruptionDetection(pick("sed")[0])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d of %d single-word corruptions rejected by the parsing library (%.1f%%)\n\n",
			detected, total, float64(detected)/float64(total)*100)
	}

	if selected("ablations") {
		fmt.Fprintln(w, "== Ablations: design choices of §3-§4 (bare compute kernel; synthetic TLB sweep) ==")
		a, err := experiment.Ablate()
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "record format:     address-only %.3f B/ref, in-trace lengths %.3f B/ref (%.3fx)\n",
			a.AddrOnlyBytesPerRef, a.InLenBytesPerRef, a.InLenBytesPerRef/a.AddrOnlyBytesPerRef)
		fmt.Fprintf(w, "register strategy: stealing growth %.3fx, reservation growth %.3fx, reservation uninstrumented text %.3fx\n",
			a.StealGrowth, a.ReserveGrowth, a.ReserveOrigText)
		fmt.Fprintf(w, "UTLB synthesis:    %.3f instructions per miss over %d misses, %d stall cycles\n\n",
			float64(a.SynthInstr)/float64(a.TLBMisses), a.TLBMisses, a.SynthStalls)
	}
	return nil
}

func pick(names ...string) []workload.Spec {
	var out []workload.Spec
	for _, n := range names {
		if s, ok := workload.ByName(n); ok {
			out = append(out, s)
		}
	}
	return out
}

func u(v uint64) string { return strconv.FormatUint(v, 10) }
