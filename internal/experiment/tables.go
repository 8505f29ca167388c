package experiment

import (
	"fmt"
	"math"
	"strings"
	"systrace/internal/trace"

	"systrace/internal/epoxie"
	"systrace/internal/kernel"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/pixie"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// Row is one workload's measured/predicted pair for one system.
type Row struct {
	Name      string
	Measured  float64
	Predicted float64
}

// PercentError returns (predicted-measured)/measured * 100.
func (r Row) PercentError() float64 {
	if r.Measured == 0 {
		return 0
	}
	return (r.Predicted - r.Measured) / r.Measured * 100
}

// Table1Row is one entry of the workload inventory.
type Table1Row struct {
	Name        string
	Description string
	Seconds     float64
	Instr       uint64
}

// bothSystems is the paper's system pair, in its column order.
var bothSystems = []kernel.Flavor{kernel.Mach, kernel.Ultrix}

// Table1 runs the untraced suite on the Ultrix-like system and reports
// the workload inventory with execution times. The run set is
// submitted up front, so distinct runs simulate in parallel and
// anything another table already requested is served from the memo.
func (r *Runner) Table1(specs []workload.Spec) ([]Table1Row, error) {
	for _, s := range specs {
		r.StartMeasure(s, Config{Flavor: kernel.Ultrix, Seed: 1})
	}
	var rows []Table1Row
	for _, s := range specs {
		meas, err := r.Measure(s, Config{Flavor: kernel.Ultrix, Seed: 1})
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table1Row{s.Name, s.Description, meas.Seconds, meas.Instr})
	}
	return rows, nil
}

// Table2Row pairs both systems for one workload.
type Table2Row struct {
	Name                            string
	MachMeasured, MachPredicted     float64
	UltrixMeasured, UltrixPredicted float64
}

// Table2 reproduces the run-time validation: measured and predicted
// execution times for both systems. Its run set is identical to
// Table3's, so whichever runs second costs nothing.
func (r *Runner) Table2(specs []workload.Spec) ([]Table2Row, error) {
	for _, s := range specs {
		for _, fl := range bothSystems {
			r.StartMeasure(s, Config{Flavor: fl, Seed: 1})
			r.StartPredict(s, Config{Flavor: fl, Seed: 2})
		}
	}
	var rows []Table2Row
	for _, s := range specs {
		row := Table2Row{Name: s.Name}
		for _, fl := range bothSystems {
			meas, err := r.Measure(s, Config{Flavor: fl, Seed: 1})
			if err != nil {
				return nil, err
			}
			pred, err := r.Predict(s, Config{Flavor: fl, Seed: 2})
			if err != nil {
				return nil, err
			}
			if meas.Result != pred.Result {
				return nil, fmt.Errorf("table2 %s/%v: measured result %d != predicted-run result %d",
					s.Name, fl, meas.Result, pred.Result)
			}
			if fl == kernel.Mach {
				row.MachMeasured, row.MachPredicted = meas.Seconds, pred.Seconds
			} else {
				row.UltrixMeasured, row.UltrixPredicted = meas.Seconds, pred.Seconds
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure3 derives the Ultrix prediction-error series from Table 2 rows
// (the paper presents Ultrix only, "because of the large variability
// of running time induced by the Mach 3.0 page mapping policy").
func Figure3(rows []Table2Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = Row{r.Name, r.UltrixMeasured, r.UltrixPredicted}
	}
	return out
}

// Table3Row holds TLB miss counts for both systems.
type Table3Row struct {
	Name                            string
	MachMeasured, MachPredicted     uint64
	UltrixMeasured, UltrixPredicted uint64
}

// Table3 reproduces the user-TLB-miss validation; the run set is
// Table2's, so a suite pays for it once.
func (r *Runner) Table3(specs []workload.Spec) ([]Table3Row, error) {
	for _, s := range specs {
		for _, fl := range bothSystems {
			r.StartMeasure(s, Config{Flavor: fl, Seed: 1})
			r.StartPredict(s, Config{Flavor: fl, Seed: 2})
		}
	}
	var rows []Table3Row
	for _, s := range specs {
		row := Table3Row{Name: s.Name}
		for _, fl := range bothSystems {
			meas, err := r.Measure(s, Config{Flavor: fl, Seed: 1})
			if err != nil {
				return nil, err
			}
			pred, err := r.Predict(s, Config{Flavor: fl, Seed: 2})
			if err != nil {
				return nil, err
			}
			if fl == kernel.Mach {
				row.MachMeasured, row.MachPredicted = uint64(meas.UTLBMisses), pred.UTLBMisses
			} else {
				row.UltrixMeasured, row.UltrixPredicted = uint64(meas.UTLBMisses), pred.UTLBMisses
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// GrowthRow reports text expansion for one binary and tool.
type GrowthRow struct {
	Name      string
	Tool      string
	OrigBytes uint32
	NewBytes  uint32
	Factor    float64
}

// TextGrowth reproduces the §3.2 comparison: the modified epoxie
// against the original-epoxie style and pixie, per workload (the
// paper's footnote uses gcc).
func TextGrowth(specs []workload.Spec) ([]GrowthRow, error) {
	var rows []GrowthRow
	for _, s := range specs {
		prog, err := program(s, epoxie.FlowOn)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GrowthRow{
			Name: s.Name, Tool: "epoxie",
			OrigBytes: prog.Instr.Instr.OrigTextSize,
			NewBytes:  prog.Instr.Instr.TextSize,
			Factor:    prog.Instr.Instr.GrowthFactor(),
		})
		// Original-epoxie emission style.
		objs := []*obj.File{userland.Crt0(true)}
		mods := []*m.Module{s.Build(), userland.Libc()}
		for _, mod := range mods {
			o, err := mod.Compile(m.Options{})
			if err != nil {
				return nil, err
			}
			objs = append(objs, o)
		}
		b, err := epoxie.BuildInstrumented(objs, link.Options{
			Name: s.Name, Entry: "_start",
			TextBase: obj.UserTextBase, DataBase: obj.UserDataBase,
		}, epoxie.Config{Orig: true}, epoxie.UserRuntime)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GrowthRow{
			Name: s.Name, Tool: "epoxie-orig",
			OrigBytes: b.Instr.Instr.OrigTextSize,
			NewBytes:  b.Instr.Instr.TextSize,
			Factor:    b.Instr.Instr.GrowthFactor(),
		})
		// pixie.
		res, err := pixie.Rewrite(prog.Orig, pixie.ModeTrace)
		if err != nil {
			return nil, err
		}
		rows = append(rows, GrowthRow{
			Name: s.Name, Tool: "pixie",
			OrigBytes: res.Exe.Instr.OrigTextSize,
			NewBytes:  res.Exe.Instr.TextSize,
			Factor:    res.Exe.Instr.GrowthFactor(),
		})
	}
	return rows, nil
}

// DilationRow reports the traced/untraced slowdown of one workload.
type DilationRow struct {
	Name          string
	UntracedInstr uint64
	TracedInstr   uint64
	Factor        float64
	ClockUntraced uint32
	ClockTraced   uint32
}

// TimeDilation reproduces the §4.1 numbers: traced programs execute
// "about fifteen times more slowly", and the clock is retuned to
// match. The measurements are Table1's.
func (r *Runner) TimeDilation(specs []workload.Spec) ([]DilationRow, error) {
	for _, s := range specs {
		r.StartMeasure(s, Config{Flavor: kernel.Ultrix, Seed: 1})
		r.StartPredict(s, Config{Flavor: kernel.Ultrix, Seed: 1})
	}
	var rows []DilationRow
	for _, s := range specs {
		meas, err := r.Measure(s, Config{Flavor: kernel.Ultrix, Seed: 1})
		if err != nil {
			return nil, err
		}
		pred, err := r.Predict(s, Config{Flavor: kernel.Ultrix, Seed: 1})
		if err != nil {
			return nil, err
		}
		base := kernel.DefaultBoot(kernel.Ultrix).ClockInterval
		rows = append(rows, DilationRow{
			Name:          s.Name,
			UntracedInstr: meas.Instr,
			TracedInstr:   pred.TracedInstr,
			Factor:        float64(pred.TracedInstr) / float64(meas.Instr),
			ClockUntraced: base,
			ClockTraced:   base * IdleScale,
		})
	}
	return rows, nil
}

// BufferRow reports the behavior of one in-kernel buffer size.
type BufferRow struct {
	BufBytes      uint32
	ModeSwitches  uint64
	TracedInstr   uint64
	InstrPerPhase float64
	// Cycles is total machine time for the run including the
	// stop-the-world analysis phases.
	Cycles uint64
}

// BufferSizing reproduces the §4.3 analysis on the two-phase drain:
// larger in-kernel buffers mean rarer generation/analysis transitions
// (the paper's 64 MB buffer permitted ~32 M instructions of continuous
// execution).
func BufferSizing(spec workload.Spec, sizes []uint32) ([]BufferRow, error) {
	var rows []BufferRow
	for _, size := range sizes {
		sys, _, err := Config{Flavor: kernel.Ultrix, BufBytes: size}.boot(spec, true, nil)
		if err != nil {
			return nil, err
		}
		if err := sys.Run(runBudget); err != nil {
			return nil, err
		}
		sw := sys.Doorbells
		if sw == 0 {
			sw = 1
		}
		rows = append(rows, BufferRow{
			BufBytes:      size,
			ModeSwitches:  sys.Doorbells,
			TracedInstr:   sys.M.CPU.Stat.Instret,
			InstrPerPhase: float64(sys.M.CPU.Stat.Instret) / float64(sw),
			Cycles:        sys.M.Cycles(),
		})
	}
	return rows, nil
}

// CPIResult reports the Tunix-era observation (§3.4): kernel CPI is a
// small multiple of user CPI.
type CPIResult struct {
	KernelCPI, UserCPI, Ratio float64
	KernelInstr, UserInstr    uint64
}

// KernelCPI measures CPI by mode on a system-call-heavy workload, from
// the same run Table1 reports.
func (r *Runner) KernelCPI(spec workload.Spec) (*CPIResult, error) {
	meas, err := r.Measure(spec, Config{Flavor: kernel.Ultrix, Seed: 1})
	if err != nil {
		return nil, err
	}
	t := meas.Timing
	res := &CPIResult{
		KernelCPI:   t.KernelCPI(),
		UserCPI:     t.UserCPI(),
		KernelInstr: t.KernelInstr,
		UserInstr:   t.UserInstr,
	}
	if res.UserCPI > 0 {
		res.Ratio = res.KernelCPI / res.UserCPI
	}
	return res, nil
}

// VarianceResult reports the §4.4 page-mapping repeatability hazard.
type VarianceResult struct {
	Times          []float64
	SpreadPercent  float64 // (max-min)/min * 100
	SystemFraction float64 // kernel instructions / total, mean over seeds
}

// PageMappingVariance runs the workload under the Mach-like system
// with different page-placement seeds: "system policy in the
// virtual-to-physical page selection can cause execution time to vary
// by over 10%" while system activity is only ~1% (§4.4). The per-seed
// runs simulate in parallel.
func (r *Runner) PageMappingVariance(spec workload.Spec, seeds []uint32) (*VarianceResult, error) {
	for _, seed := range seeds {
		r.StartMeasure(spec, Config{Flavor: kernel.Mach, Seed: seed})
	}
	res := &VarianceResult{}
	lo, hi := math.Inf(1), math.Inf(-1)
	var fracSum float64
	for _, seed := range seeds {
		meas, err := r.Measure(spec, Config{Flavor: kernel.Mach, Seed: seed})
		if err != nil {
			return nil, err
		}
		res.Times = append(res.Times, meas.Seconds)
		lo = math.Min(lo, meas.Seconds)
		hi = math.Max(hi, meas.Seconds)
		fracSum += float64(meas.Timing.KernelInstr) /
			float64(meas.Timing.KernelInstr+meas.Timing.UserInstr)
	}
	if len(seeds) > 0 {
		res.SystemFraction = fracSum / float64(len(seeds))
	}
	if lo > 0 {
		res.SpreadPercent = (hi - lo) / lo * 100
	}
	return res, nil
}

// ErrorAnatomy decomposes a prediction for the §5.1 error discussion.
type ErrorAnatomy struct {
	Name            string
	MeasuredSec     float64
	PredictedSec    float64
	ErrorPercent    float64
	IOStallsSec     float64
	FPOverlapCycles uint64 // overlap the measured side models and the predictor does not
	WBStallCycles   uint64
}

// ErrorSources explains the §5.1 error structure for the paper's three
// outliers (sed, compress, liv) from the same runs Table1 and Table2
// report.
func (r *Runner) ErrorSources(names []string) ([]ErrorAnatomy, error) {
	specs := make([]workload.Spec, 0, len(names))
	for _, n := range names {
		spec, ok := workload.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", n)
		}
		specs = append(specs, spec)
		r.StartMeasure(spec, Config{Flavor: kernel.Ultrix, Seed: 1})
		r.StartPredict(spec, Config{Flavor: kernel.Ultrix, Seed: 2})
	}
	var out []ErrorAnatomy
	for _, spec := range specs {
		n := spec.Name
		meas, err := r.Measure(spec, Config{Flavor: kernel.Ultrix, Seed: 1})
		if err != nil {
			return nil, err
		}
		pred, err := r.Predict(spec, Config{Flavor: kernel.Ultrix, Seed: 2})
		if err != nil {
			return nil, err
		}
		row := Row{n, meas.Seconds, pred.Seconds}
		out = append(out, ErrorAnatomy{
			Name:            n,
			MeasuredSec:     meas.Seconds,
			PredictedSec:    pred.Seconds,
			ErrorPercent:    row.PercentError(),
			IOStallsSec:     float64(pred.IOStalls) / 25e6,
			FPOverlapCycles: meas.Timing.FPOverlapped,
			WBStallCycles:   meas.Timing.WBStalls,
		})
	}
	return out, nil
}

// --- formatting helpers ---

// FormatTable renders rows of cells as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	w := make([]int, len(header))
	for i, h := range header {
		w[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(w) && len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	rule := make([]string, len(header))
	for i := range rule {
		rule[i] = strings.Repeat("-", w[i])
	}
	line(rule)
	for _, r := range rows {
		line(r)
	}
	return b.String()
}

// Sec formats simulated seconds.
func Sec(s float64) string { return fmt.Sprintf("%.4f", s) }

// Figure2 renders the paper's before/after instrumentation listing.
func Figure2() (string, error) {
	out, err := epoxie.Figure2()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("before instrumentation:        after instrumentation:\n")
	n := len(out.After)
	for i := 0; i < n; i++ {
		left := ""
		if i < len(out.Before) {
			left = out.Before[i]
		}
		fmt.Fprintf(&b, "  %-28s %s\n", left, out.After[i])
	}
	return b.String(), nil
}

// CorruptionDetection measures the §4.3 redundancy: it captures the
// first 4096 words of a traced run's stream, however they are
// delivered, overwrites every seventh word in turn with a bogus value,
// and counts how many corruptions the parsing library rejects.
func CorruptionDetection(spec workload.Spec) (detected, total int, err error) {
	sys, _, err := Config{Flavor: kernel.Ultrix, Seed: 1}.boot(spec, true, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("corruption study: boot %s: %w", spec.Name, err)
	}
	const window = 4096
	var first []uint32
	tables := map[int]*trace.SideTable{0: trace.NewSideTable(sys.Kernel.Instr.Blocks)}
	for i, bp := range sys.Procs {
		if bp.Exe.Instr != nil {
			tables[i+1] = trace.NewSideTable(bp.Exe.Instr.Blocks)
		}
	}
	sys.OnTrace = func(words []uint32) {
		first = append(first, words[:min(len(words), window-len(first))]...)
	}
	if err := sys.Run(runBudget); err != nil {
		return 0, 0, fmt.Errorf("corruption study: run %s: %w", spec.Name, err)
	}
	parse := func(ws []uint32) error {
		p := trace.NewParser(tables[0])
		for pid, tab := range tables {
			if pid != 0 {
				p.AddProcess(pid, tab)
			}
		}
		if _, err := p.Parse(ws, nil); err != nil {
			return err
		}
		return p.Finish()
	}
	for i := 0; i < len(first); i += 7 {
		mut := append([]uint32(nil), first...)
		mut[i] = 0x13572468
		total++
		if parse(mut) != nil {
			detected++
		}
	}
	if total == 0 {
		return 0, 0, fmt.Errorf("corruption study: %s produced no trace words", spec.Name)
	}
	return detected, total, nil
}
