// Command experiments regenerates the paper's evaluation: Tables 1-3,
// Figures 1-3, and the supporting measurements (text growth, time
// dilation, buffer sizing, kernel CPI, page-mapping variance, error
// anatomy). Absolute numbers are scaled (the workloads are reduced so
// the suite simulates in minutes); the shape of each result is what is
// validated against the paper — see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

func main() {
	quick := flag.Bool("quick", false, "run a 4-workload subset")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. table2,figure3)")
	jobs := flag.Int("j", 0, "max simulations in flight (default GOMAXPROCS)")
	flag.Parse()

	// One orchestrator for the whole suite: tables that share runs
	// (table2/table3, table1/dilation/cpi, figure1/dilation, errors)
	// pay for each unique simulation exactly once.
	runner := experiment.NewRunner(*jobs)

	specs := workload.All()
	if *quick {
		specs = pick("sed", "compress", "lisp", "liv")
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id != "" {
			want[strings.TrimSpace(id)] = true
		}
	}
	run := func(id string) bool { return len(want) == 0 || want[id] }
	die := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if run("figure1") {
		fmt.Println("== Figure 1: tracing system overview (one traced run) ==")
		pred, err := runner.Predict(specs[0], experiment.Config{Flavor: kernel.Ultrix, Seed: 1})
		die(err)
		fmt.Printf("workload %s: %d trace words drained over %d analysis phases;\n",
			pred.Name, pred.TraceWords, pred.ModeSwitches)
		fmt.Printf("  %d reconstructed references (kernel and user interleaved), %d idle-loop instructions\n\n",
			pred.Events, pred.IdleInstr)
	}

	if run("figure2") {
		fmt.Println("== Figure 2: instrumentation by epoxie ==")
		f2, err := experiment.Figure2()
		die(err)
		fmt.Println(f2)
	}

	if run("table1") {
		fmt.Println("== Table 1: experimental workloads ==")
		rows, err := runner.Table1(specs)
		die(err)
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name, experiment.Sec(r.Seconds),
				strconv.FormatUint(r.Instr, 10), r.Description})
		}
		fmt.Println(experiment.FormatTable(
			[]string{"workload", "sec", "instructions", "description"}, cells))
	}

	var t2 []experiment.Table2Row
	if run("table2") || run("figure3") {
		fmt.Println("== Table 2: run times, measured and predicted (seconds) ==")
		var err error
		t2, err = runner.Table2(specs)
		die(err)
		var cells [][]string
		for _, r := range t2 {
			cells = append(cells, []string{r.Name,
				experiment.Sec(r.MachMeasured), experiment.Sec(r.MachPredicted),
				experiment.Sec(r.UltrixMeasured), experiment.Sec(r.UltrixPredicted)})
		}
		fmt.Println(experiment.FormatTable(
			[]string{"workload", "mach meas", "mach pred", "ultrix meas", "ultrix pred"}, cells))
	}

	if run("figure3") {
		fmt.Println("== Figure 3: error in predicted execution times (Ultrix) ==")
		for _, r := range experiment.Figure3(t2) {
			e := r.PercentError()
			bar := strings.Repeat("#", int(abs(e)*2+0.5))
			fmt.Printf("%-10s %+6.1f%% %s\n", r.Name, e, bar)
		}
		fmt.Println()
	}

	if run("table3") {
		fmt.Println("== Table 3: TLB misses, measured and predicted ==")
		rows, err := runner.Table3(specs)
		die(err)
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name,
				u(r.MachMeasured), u(r.MachPredicted),
				u(r.UltrixMeasured), u(r.UltrixPredicted)})
		}
		fmt.Println(experiment.FormatTable(
			[]string{"workload", "mach meas", "mach pred", "ultrix meas", "ultrix pred"}, cells))
	}

	if run("growth") {
		fmt.Println("== E7: text growth (epoxie 1.9-2.3x vs pixie/original 4-6x) ==")
		rows, err := experiment.TextGrowth(pick("gcc"))
		die(err)
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Name, r.Tool,
				strconv.Itoa(int(r.OrigBytes)), strconv.Itoa(int(r.NewBytes)),
				fmt.Sprintf("%.2fx", r.Factor)})
		}
		fmt.Println(experiment.FormatTable(
			[]string{"binary", "tool", "orig bytes", "instr bytes", "growth"}, cells))
	}

	if run("dilation") {
		fmt.Println("== E8: time dilation (traced/untraced slowdown) ==")
		rows, err := runner.TimeDilation(pick("sed", "lisp"))
		die(err)
		for _, r := range rows {
			fmt.Printf("%-10s untraced %9d instr, traced %10d instr: %.1fx (clock %d -> %d cycles)\n",
				r.Name, r.UntracedInstr, r.TracedInstr, r.Factor, r.ClockUntraced, r.ClockTraced)
		}
		fmt.Println()
	}

	if run("buffer") {
		fmt.Println("== E9: in-kernel buffer sizing vs mode switches ==")
		spec, _ := workload.ByName("compress")
		rows, err := experiment.BufferSizing(spec, []uint32{256 << 10, 1 << 20, 4 << 20, 16 << 20})
		die(err)
		for _, r := range rows {
			fmt.Printf("buffer %8d KB: %3d analysis phases, %.0f traced instructions per phase\n",
				r.BufBytes>>10, r.ModeSwitches, r.InstrPerPhase)
		}
		fmt.Println()
	}

	if run("cpi") {
		fmt.Println("== E10: kernel vs user CPI (the Tunix observation) ==")
		spec, _ := workload.ByName("sed")
		res, err := runner.KernelCPI(spec)
		die(err)
		fmt.Printf("kernel CPI %.2f, user CPI %.2f, ratio %.2f (kernel %d / user %d instructions)\n\n",
			res.KernelCPI, res.UserCPI, res.Ratio, res.KernelInstr, res.UserInstr)
	}

	if run("variance") {
		fmt.Println("== E11: page-mapping variance under Mach's random policy ==")
		spec, _ := workload.ByName("tomcatv")
		res, err := runner.PageMappingVariance(spec, []uint32{3, 17, 91, 1234, 5555})
		die(err)
		fmt.Printf("tomcatv times: %v\n", res.Times)
		fmt.Printf("spread %.1f%% with system activity only %.1f%% of instructions\n\n",
			res.SpreadPercent, res.SystemFraction*100)
	}

	if run("errors") {
		fmt.Println("== E12: error anatomy for the paper's outliers ==")
		rows, err := runner.ErrorSources([]string{"sed", "compress", "liv"})
		die(err)
		for _, r := range rows {
			fmt.Printf("%-10s meas %.4fs pred %.4fs err %+5.1f%%  io-est %.4fs  fp-overlap %d cyc  wb-stalls %d cyc\n",
				r.Name, r.MeasuredSec, r.PredictedSec, r.ErrorPercent,
				r.IOStallsSec, r.FPOverlapCycles, r.WBStallCycles)
		}
		fmt.Println()
	}

	if run("corruption") {
		fmt.Println("== E13: trace corruption detection (§4.3 redundancy) ==")
		spec, _ := workload.ByName("sed")
		detected, total, err := experiment.CorruptionDetection(spec)
		die(err)
		fmt.Printf("%d of %d single-word corruptions rejected by the parsing library (%.1f%%)\n\n",
			detected, total, float64(detected)/float64(total)*100)
	}

	if s := runner.Stats(); s.Requested > 0 {
		fmt.Printf("runner: %d runs requested, %d unique simulations executed (%d served from memo), %d workers\n",
			s.Requested, s.Executed, s.Deduplicated(), s.Workers)
	}
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

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
