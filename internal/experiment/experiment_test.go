package experiment_test

import (
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obj"
	"systrace/internal/workload"
)

func specsFor(t *testing.T, names ...string) []workload.Spec {
	t.Helper()
	var out []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			t.Fatalf("no workload %q", n)
		}
		out = append(out, s)
	}
	return out
}

func TestMeasurePredictAgreeOnResult(t *testing.T) {
	for _, s := range specsFor(t, "sed", "lisp") {
		meas, err := experiment.Measure(s, kernel.Ultrix, 1)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := experiment.Predict(s, kernel.Ultrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		if meas.Result != pred.Result {
			t.Errorf("%s: results diverge (%d vs %d)", s.Name, meas.Result, pred.Result)
		}
		row := experiment.Row{Name: s.Name, Measured: meas.Seconds, Predicted: pred.Seconds}
		t.Logf("%s: measured=%.5fs predicted=%.5fs err=%.1f%% (cpu=%d mem=%d arith=%d io=%d) utlb meas=%d pred=%d",
			s.Name, meas.Seconds, pred.Seconds, row.PercentError(),
			pred.CPUCycles, pred.MemStalls, pred.ArithStalls, pred.IOStalls,
			meas.UTLBMisses, pred.UTLBMisses)
		if e := row.PercentError(); e < -60 || e > 60 {
			t.Errorf("%s: prediction error %.1f%% is out of any reasonable band", s.Name, e)
		}
	}
}

func TestConformanceCleanOnSimulatorOutput(t *testing.T) {
	for _, s := range specsFor(t, "sed") {
		for _, flavor := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
			res, err := experiment.Config{Flavor: flavor, Seed: 1}.Conformance(s)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, flavor, err)
			}
			if !res.Clean() {
				n := len(res.Diags)
				if n > 5 {
					n = 5
				}
				t.Errorf("%s/%v: simulator trace fails conformance (%d diags): %v",
					s.Name, flavor, len(res.Diags), res.Diags[:n])
			}
			if res.Records == 0 || res.Words == 0 {
				t.Errorf("%s/%v: degenerate result %+v", s.Name, flavor, res)
			}
			t.Logf("%s/%v: %d words, %d records, %d markers checked clean",
				s.Name, flavor, res.Words, res.Records, res.Markers)
		}
	}
}

func TestStreamingConformanceAndPredict(t *testing.T) {
	stream := kernel.DefaultStream()
	for _, s := range specsFor(t, "sed") {
		res, err := experiment.Config{Flavor: kernel.Ultrix, Seed: 1, Stream: stream}.Conformance(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if !res.Clean() {
			n := len(res.Diags)
			if n > 5 {
				n = 5
			}
			t.Errorf("%s: compressed stream fails conformance (%d diags): %v",
				s.Name, len(res.Diags), res.Diags[:n])
		}
		base, err := experiment.Predict(s, kernel.Ultrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := experiment.PredictStream(s, kernel.Ultrix, 2, 0, stream)
		if err != nil {
			t.Fatal(err)
		}
		if pred.Result != base.Result {
			t.Errorf("%s: streaming drain changed the workload result (%d vs %d)",
				s.Name, pred.Result, base.Result)
		}
		if pred.Stream.Epochs == 0 {
			t.Errorf("%s: streaming predict handed off no epochs", s.Name)
		}
		if pred.Stream.DecodeErrors != 0 {
			t.Errorf("%s: %d decode errors on the wire", s.Name, pred.Stream.DecodeErrors)
		}
		if pred.Stream.EncodedBytes == 0 || pred.Stream.EncodedBytes >= pred.Stream.RawBytes {
			t.Errorf("%s: compression did not shrink the stream (%d -> %d bytes)",
				s.Name, pred.Stream.RawBytes, pred.Stream.EncodedBytes)
		}
		if pred.OverlapCycles == 0 {
			t.Errorf("%s: no analysis cycles were overlapped", s.Name)
		}
		if pred.Seconds != base.Seconds {
			t.Errorf("%s: streaming drain changed the *prediction* (%.5fs vs %.5fs); "+
				"the drain mode must not perturb what the analysis computes",
				s.Name, pred.Seconds, base.Seconds)
		}
		if pred.TracedCycles >= base.TracedCycles {
			t.Errorf("%s: overlapped drain not faster (%d traced cycles vs two-phase %d)",
				s.Name, pred.TracedCycles, base.TracedCycles)
		}
		t.Logf("%s: %d epochs, %d -> %d bytes (%.2fx), overlap=%d cycles, traced %d vs two-phase %d",
			s.Name, pred.Stream.Epochs, pred.Stream.RawBytes, pred.Stream.EncodedBytes,
			float64(pred.Stream.RawBytes)/float64(pred.Stream.EncodedBytes),
			pred.OverlapCycles, pred.TracedCycles, base.TracedCycles)
	}
}

// TestDrainAndDataflowGates holds the streaming drain and the dataflow
// engine to their design targets over full traced boots:
//   - on sed and lisp with a 512 KB buffer (Ultrix, seed 1), the
//     compressed epoch-ring drain retires fewer traced cycles than the
//     two-phase drain, compresses the stream at least 4x, leaves the
//     workload result unchanged, and passes conformance;
//   - the static trace-cost table predicts the consumed stream of sed,
//     lisp, egrep and yacc within 10%;
//   - liveness elides at least 20% of the save sites across the Ultrix
//     kernel plus sed and lisp.
//
// Host time is not gated here; perfbench's stream-mach workload
// measures it.
func TestDrainAndDataflowGates(t *testing.T) {
	if testing.Short() {
		t.Skip("full traced workload boots")
	}
	r := experiment.NewRunner(0)
	twoPhase := experiment.Config{Flavor: kernel.Ultrix, Seed: 1, BufBytes: 512 << 10}
	stream := twoPhase
	stream.Stream = kernel.DefaultStream()
	std := experiment.Config{Flavor: kernel.Ultrix, Seed: 1}
	drainSpecs := specsFor(t, "sed", "lisp")
	costSpecs := specsFor(t, "sed", "lisp", "egrep", "yacc")
	for _, s := range drainSpecs {
		r.StartPredict(s, twoPhase)
		r.StartPredict(s, stream)
	}
	for _, s := range costSpecs {
		r.StartPredict(s, std)
	}

	for _, s := range drainSpecs {
		two, err := r.Predict(s, twoPhase)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := r.Predict(s, stream)
		if err != nil {
			t.Fatal(err)
		}
		if sc.TracedCycles >= two.TracedCycles {
			t.Errorf("%s: streaming drain not faster in simulated time (%d vs two-phase %d cycles)",
				s.Name, sc.TracedCycles, two.TracedCycles)
		}
		var ratio float64
		if sc.Stream.EncodedBytes > 0 {
			ratio = float64(sc.Stream.RawBytes) / float64(sc.Stream.EncodedBytes)
		}
		if ratio < 4 {
			t.Errorf("%s: compression %.2fx below the 4x target", s.Name, ratio)
		}
		if sc.Result != two.Result {
			t.Errorf("%s: workload result changed across drains (%d vs %d)", s.Name, sc.Result, two.Result)
		}
		for _, p := range []*experiment.Predicted{two, sc} {
			if !p.Conformance.Clean() {
				t.Errorf("%s: trace fails conformance (%d diags)", s.Name, len(p.Conformance.Diags))
			}
		}
		t.Logf("%s: traced cycles %d streaming vs %d two-phase, %d epochs, compression %.2fx",
			s.Name, sc.TracedCycles, two.TracedCycles, sc.Stream.Epochs, ratio)
	}

	for _, s := range costSpecs {
		p, err := r.Predict(s, std)
		if err != nil {
			t.Fatal(err)
		}
		if e := p.StaticWordErr(); e < -0.1 || e > 0.1 {
			t.Errorf("%s: static cost table error %+.2f%% beyond 10%%", s.Name, 100*e)
		} else {
			t.Logf("%s: static cost table error %+.2f%%", s.Name, 100*e)
		}
	}

	var sites, elided int
	for i, s := range drainSpecs {
		sys, _, err := std.Boot(s, true)
		if err != nil {
			t.Fatal(err)
		}
		flows := []obj.FlowStats{sys.Procs[0].Exe.Instr.Flow}
		if i == 0 {
			flows = append(flows, sys.Kernel.Instr.Flow)
		}
		for _, f := range flows {
			sites += f.SaveSites
			elided += f.SavesElided
		}
	}
	if sites == 0 || 100*elided < 20*sites {
		t.Errorf("static elision %d of %d save sites, below the 20%% floor", elided, sites)
	} else {
		t.Logf("static elision: %d of %d save sites (%.1f%%)", elided, sites, 100*float64(elided)/float64(sites))
	}
}

func TestTable1Inventory(t *testing.T) {
	rows, err := experiment.NewRunner(0).Table1(specsFor(t, "gcc", "yacc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Seconds <= 0 || r.Instr == 0 || r.Description == "" {
			t.Errorf("degenerate row %+v", r)
		}
	}
}

func TestTable2AndFigure3(t *testing.T) {
	specs := specsFor(t, "gcc", "yacc")[:1] // gcc only: four full system runs
	rows, err := experiment.NewRunner(0).Table2(specs)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.UltrixMeasured <= 0 || r.UltrixPredicted <= 0 ||
		r.MachMeasured <= 0 || r.MachPredicted <= 0 {
		t.Fatalf("degenerate row %+v", r)
	}
	// Mach must not be cheaper than Ultrix for a syscall-using program.
	if r.MachMeasured < r.UltrixMeasured {
		t.Errorf("Mach %.4f < Ultrix %.4f for gcc", r.MachMeasured, r.UltrixMeasured)
	}
	// Predictions within the paper's error band (±15% generously).
	fig := experiment.Figure3(rows)
	for _, fr := range fig {
		if e := fr.PercentError(); e < -15 || e > 15 {
			t.Errorf("%s: prediction error %.1f%% outside band", fr.Name, e)
		}
	}
}

func TestBufferSizingMonotonic(t *testing.T) {
	spec, _ := workload.ByName("sed")
	rows, err := experiment.BufferSizing(spec, []uint32{256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].ModeSwitches < rows[1].ModeSwitches {
		t.Errorf("smaller buffer must switch at least as often: %d vs %d",
			rows[0].ModeSwitches, rows[1].ModeSwitches)
	}
	if rows[0].InstrPerPhase > rows[1].InstrPerPhase {
		t.Errorf("instructions per phase must grow with the buffer: %.0f vs %.0f",
			rows[0].InstrPerPhase, rows[1].InstrPerPhase)
	}
}

// TestAblations holds the shapes the design-choice ablations rest on.
func TestAblations(t *testing.T) {
	a, err := experiment.Ablate()
	if err != nil {
		t.Fatal(err)
	}
	if a.StealResult != a.ReserveResult {
		t.Errorf("register strategies disagree: stealing v0=%d, reservation v0=%d", a.StealResult, a.ReserveResult)
	}
	if a.InLenBytesPerRef <= a.AddrOnlyBytesPerRef {
		t.Errorf("in-trace lengths do not enlarge the stream: %.3f vs %.3f B/ref",
			a.InLenBytesPerRef, a.AddrOnlyBytesPerRef)
	}
	// The kernel's UTLB refill handler is nine instructions.
	if a.TLBMisses == 0 || a.SynthInstr != 9*a.TLBMisses {
		t.Errorf("synthesis added %d instructions over %d TLB misses, want 9 per miss", a.SynthInstr, a.TLBMisses)
	}
}

func TestKernelCPIRatio(t *testing.T) {
	spec, _ := workload.ByName("sed")
	res, err := experiment.NewRunner(0).KernelCPI(spec)
	if err != nil {
		t.Fatal(err)
	}
	// The Tunix observation's direction: kernel CPI strictly above
	// user CPI, by a small multiple (the paper saw ~3x on the Titan).
	if res.Ratio <= 1.0 || res.Ratio > 5.0 {
		t.Errorf("kernel/user CPI ratio %.2f out of the paper's shape", res.Ratio)
	}
	if res.KernelInstr == 0 || res.UserInstr == 0 {
		t.Error("mode-attributed instruction counts missing")
	}
}

func TestFormatTableAlignment(t *testing.T) {
	out := experiment.FormatTable(
		[]string{"a", "long-header", "c"},
		[][]string{{"1", "2", "3"}, {"wide-cell", "x", "y"}})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	for _, l := range lines[1:] {
		if len(l) > len(lines[0])+2 {
			t.Errorf("ragged table:\n%s", out)
		}
	}
}

// TestStaticWordsPerImage prices every image's block counts with that
// image's own blocks. On Mach the UX server and the client share user
// addresses, and blocks at one original address cost different words
// in the two images, so a table merged by original address misprices
// them. The reference sum here matches each count table to its
// executable and looks costs up by original address within it; on
// Ultrix there is one user image and the merged sum must agree.
func TestStaticWordsPerImage(t *testing.T) {
	spec := specsFor(t, "sed")[0]
	for _, fl := range []kernel.Flavor{kernel.Mach, kernel.Ultrix} {
		p, err := experiment.Predict(spec, fl, 1)
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := experiment.Boot(spec, fl, true, 1)
		if err != nil {
			t.Fatal(err)
		}
		images := []*obj.Executable{sys.Kernel}
		for _, bp := range sys.Procs {
			if bp.Exe.Instr != nil {
				images = append(images, bp.Exe)
			}
		}
		tcs := p.Parser.BlockCounts()
		if len(tcs) != len(images) {
			t.Fatalf("%v: %d count tables for %d traced images", fl, len(tcs), len(images))
		}
		var perImage, merged, records uint64
		mergedCounts := map[uint32]uint64{}
		mergedCost := map[uint32]uint64{}
		collide := 0
		for i, tc := range tcs {
			e := images[i]
			if len(tc.Counts) != len(e.Instr.Blocks) || tc.Table.Lookup(e.Instr.Blocks[0].RecordAddr) == nil {
				t.Fatalf("%v: count table %d is not image %s's", fl, i, e.Name)
			}
			cost := map[uint32]uint64{}
			for _, b := range e.Instr.Blocks {
				cost[b.OrigAddr] = uint64(1 + len(b.Mem))
				if c, ok := mergedCost[b.OrigAddr]; ok && c != cost[b.OrigAddr] {
					collide++
				}
				mergedCost[b.OrigAddr] = cost[b.OrigAddr]
			}
			for id, n := range tc.Counts {
				orig := tc.Table.Block(id).OrigAddr
				perImage += n * cost[orig]
				mergedCounts[orig] += n
				records += n
			}
		}
		for orig, n := range mergedCounts {
			merged += n * mergedCost[orig]
		}
		if records != p.Parser.Records {
			t.Errorf("%v: count tables hold %d entries, parser resolved %d records", fl, records, p.Parser.Records)
		}
		if got := p.StaticWords(); got != perImage {
			t.Errorf("%v: StaticWords %d, per-image sum %d", fl, got, perImage)
		}
		switch {
		case fl == kernel.Mach && (collide == 0 || merged == perImage):
			t.Errorf("Mach: %d differently priced shared addresses, merged sum %d = per-image %d; the case this test guards is gone",
				collide, merged, perImage)
		case fl == kernel.Ultrix && merged != perImage:
			t.Errorf("Ultrix: merged sum %d != per-image %d with one user image", merged, perImage)
		}
		t.Logf("%v sed: StaticWords %d (merged by original address %d), %d words parsed, %d differently priced shared addresses",
			fl, perImage, merged, p.Parser.Words, collide)
	}
}
