package experiment

import (
	"fmt"
	"strings"

	"systrace/internal/dataflow"
	"systrace/internal/kernel"
	"systrace/internal/obj"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/workload"
)

// Distortion is the self-measurement dashboard: how much the tracing
// system perturbs the machine it observes. The paper quantifies each
// component — "the system being traced runs about 15 times slower"
// (§4.1), instrumented text roughly doubles (§3.2), and the trace
// buffer claims physical memory that shrinks the measured system
// (§4.3). These factors are what the analysis side must compensate
// for, so surfacing them next to the raw counters is the whole point
// of the telemetry layer.
type Distortion struct {
	Name   string
	Flavor kernel.Flavor
	Seed   uint32

	// TimeDilation is traced machine instructions over untraced
	// machine instructions for the same work (§4.1's factor of ~15;
	// this reproduction's software-only pipeline lands lower).
	TimeDilation float64
	// MemoryDilation is the traced system's text+buffer footprint
	// over the untraced text footprint (§3.2 code growth plus §4.3
	// buffer geometry).
	MemoryDilation float64
	// TraceWordsPerInstr is raw trace words emitted per traced-
	// workload instruction reconstructed by the parser.
	TraceWordsPerInstr float64
	// GenerationDutyCycle is the fraction of traced-machine time
	// spent generating (vs. the interleaved analysis phases, §4.3).
	GenerationDutyCycle float64

	// Footprint components (bytes) behind MemoryDilation.
	UntracedTextBytes uint64
	TracedTextBytes   uint64
	BufferBytes       uint64

	// Flow aggregates the rewriter's dataflow statistics across every
	// instrumented image in the system (kernel + workload + server):
	// how many prologue/scratch save sites the liveness analysis
	// proved elidable.
	Flow obj.FlowStats

	// Cost is the static trace-cost model merged over the same images:
	// predicted trace words per original instruction from the rewritten
	// image and its CFG alone, no execution.
	Cost *dataflow.CostModel
	// StaticModelErr is the cost model's table validated against the
	// measured stream: the signed relative error of Σ counts·(1+|Mem|)
	// over observed block entries vs. the words the parser consumed.
	// The structural mix estimate (Cost.WordsPerInstr vs.
	// TraceWordsPerInstr) carries the frequency-guessing error on top.
	StaticModelErr float64

	Meas *Measured
	Pred *Predicted
}

// Distort runs the workload both untraced (direct measurement) and
// traced (trace-driven prediction), computes the distortion factors,
// and — when reg is non-nil — registers every subsystem's series plus
// the four dashboard gauges on it.
func Distort(spec workload.Spec, flavor kernel.Flavor, seed uint32,
	reg *telemetry.Registry) (*Distortion, error) {
	c := Config{Flavor: flavor, Seed: seed}
	meas, err := measure(spec, c, reg)
	if err != nil {
		return nil, err
	}
	pred, err := predict(spec, c, reg)
	if err != nil {
		return nil, err
	}

	d := &Distortion{
		Name:   spec.Name,
		Flavor: flavor,
		Seed:   seed,
		Meas:   meas,
		Pred:   pred,
	}
	if meas.Instr > 0 {
		d.TimeDilation = float64(pred.TracedInstr) / float64(meas.Instr)
	}
	if pred.Parser != nil && pred.Parser.Fetches > 0 {
		d.TraceWordsPerInstr = float64(pred.TraceWords) / float64(pred.Parser.Fetches)
	}
	if pred.TracedCycles > 0 {
		d.GenerationDutyCycle =
			float64(pred.TracedCycles-pred.AnalysisCycles) / float64(pred.TracedCycles)
	}

	// Footprints from the cached build products: uninstrumented vs.
	// instrumented text, plus the tracing system's buffers (§4.3:
	// in-kernel buffer + per-process book and buffer pages).
	kexe, err := kernelExe(flavor, true, c.Flow)
	if err != nil {
		return nil, err
	}
	prog, err := program(spec, c.Flow)
	if err != nil {
		return nil, err
	}
	orig := uint64(kexe.Instr.OrigTextSize) + uint64(prog.Instr.Instr.OrigTextSize)
	instr := uint64(kexe.Instr.TextSize) + uint64(prog.Instr.Instr.TextSize)
	d.addFlow(kexe.Instr.Flow)
	d.addFlow(prog.Instr.Instr.Flow)
	cost, err := dataflow.StaticCostTraced(kexe)
	if err != nil {
		return nil, err
	}
	progCost, err := dataflow.StaticCostTraced(prog.Instr)
	if err != nil {
		return nil, err
	}
	cost.Merge(progCost)
	nprocs := uint64(1)
	if flavor == kernel.Mach {
		srv, err := server(c.Flow)
		if err != nil {
			return nil, err
		}
		orig += uint64(srv.Instr.Instr.OrigTextSize)
		instr += uint64(srv.Instr.Instr.TextSize)
		d.addFlow(srv.Instr.Instr.Flow)
		srvCost, err := dataflow.StaticCostTraced(srv.Instr)
		if err != nil {
			return nil, err
		}
		cost.Merge(srvCost)
		nprocs = 2
	}
	d.Cost = cost
	d.StaticModelErr = pred.StaticWordErr()
	d.UntracedTextBytes = orig
	d.TracedTextBytes = instr
	d.BufferBytes = trace.DefaultKernelBufBytes +
		nprocs*(trace.BookSize+trace.UserBufBytes)
	if orig > 0 {
		d.MemoryDilation = float64(instr+d.BufferBytes) / float64(orig)
	}

	if reg != nil {
		lab := []telemetry.Label{
			telemetry.L("workload", spec.Name),
			telemetry.L("os", flavor.String()),
		}
		reg.Gauge("distortion_time_dilation",
			"traced/untraced instruction ratio (§4.1 slowdown)", lab...).
			Set(d.TimeDilation)
		reg.Gauge("distortion_memory_dilation",
			"traced text+buffers over untraced text (§3.2 growth, §4.3 buffers)", lab...).
			Set(d.MemoryDilation)
		reg.Gauge("distortion_trace_words_per_instruction",
			"raw trace words per reconstructed workload instruction", lab...).
			Set(d.TraceWordsPerInstr)
		reg.Gauge("distortion_generation_duty_cycle",
			"fraction of traced-machine time in generation vs. analysis (§4.3)", lab...).
			Set(d.GenerationDutyCycle)
		reg.Gauge("dataflow_blocks_analyzed",
			"basic blocks covered by the rewriter's liveness analysis", lab...).
			Set(float64(d.Flow.Blocks))
		reg.Gauge("dataflow_save_sites",
			"instrumentation sites where a register save/restore may be needed", lab...).
			Set(float64(d.Flow.SaveSites))
		reg.Gauge("dataflow_saves_elided",
			"save sites elided because liveness proved the register dead", lab...).
			Set(float64(d.Flow.SavesElided))
		reg.Gauge("dataflow_fallbacks",
			"save sites kept conservative (register live or analysis inconclusive)", lab...).
			Set(float64(d.Flow.Fallbacks))
		reg.Gauge("dataflow_static_trace_words_per_instr",
			"cost model: predicted trace words per original instruction (static)", lab...).
			Set(d.Cost.WordsPerInstr())
		reg.Gauge("dataflow_static_trace_words_per_block",
			"cost model: predicted trace words per recorded block entry (static)", lab...).
			Set(d.Cost.WordsPerBlock())
		reg.Gauge("dataflow_static_added_instr_per_instr",
			"cost model: instrumentation text words added per original text word", lab...).
			Set(d.Cost.AddedPerInstr())
		reg.Gauge("dataflow_static_model_error_pct",
			"cost table error: static per-block words vs. words the parser consumed (%)", lab...).
			Set(d.StaticModelErr * 100)
	}
	return d, nil
}

// addFlow accumulates one image's dataflow statistics into the
// system-wide totals.
func (d *Distortion) addFlow(f obj.FlowStats) {
	d.Flow.Blocks += f.Blocks
	d.Flow.Funcs += f.Funcs
	d.Flow.SaveSites += f.SaveSites
	d.Flow.SavesElided += f.SavesElided
	d.Flow.Fallbacks += f.Fallbacks
	d.Flow.BytesSaved += f.BytesSaved
}

// Format renders the human-readable dashboard.
func (d *Distortion) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "distortion dashboard: %s on %v (seed %d)\n",
		d.Name, d.Flavor, d.Seed)
	fmt.Fprintf(&b, "  time dilation:        %6.2fx  (%d traced instr / %d untraced instr)\n",
		d.TimeDilation, d.Pred.TracedInstr, d.Meas.Instr)
	fmt.Fprintf(&b, "  memory dilation:      %6.2fx  (%d text+buffer bytes / %d text bytes)\n",
		d.MemoryDilation, d.TracedTextBytes+d.BufferBytes, d.UntracedTextBytes)
	fmt.Fprintf(&b, "  trace words/instr:    %6.2f   (%d words / %d fetches)\n",
		d.TraceWordsPerInstr, d.Pred.TraceWords, d.Pred.Parser.Fetches)
	fmt.Fprintf(&b, "  generation duty:      %6.2f%%  (%d of %d cycles; rest is analysis)\n",
		d.GenerationDutyCycle*100,
		d.Pred.TracedCycles-d.Pred.AnalysisCycles, d.Pred.TracedCycles)
	fmt.Fprintf(&b, "  mode switches:        %d flushes over %d trace words\n",
		d.Pred.ModeSwitches, d.Pred.TraceWords)
	if d.Flow.SaveSites > 0 {
		fmt.Fprintf(&b, "  dead-reg elision:     %d of %d save sites elided (%.0f%%, %d bytes saved, %d kept)\n",
			d.Flow.SavesElided, d.Flow.SaveSites,
			100*float64(d.Flow.SavesElided)/float64(d.Flow.SaveSites),
			d.Flow.BytesSaved, d.Flow.Fallbacks)
		fmt.Fprintf(&b, "  dataflow coverage:    %d blocks in %d functions analyzed\n",
			d.Flow.Blocks, d.Flow.Funcs)
	}
	if d.Cost != nil {
		fmt.Fprintf(&b, "  static cost model:    %6.2f words/instr predicted vs %.2f measured (%+.1f%% mix error, max loop depth %d)\n",
			d.Cost.WordsPerInstr(), d.TraceWordsPerInstr,
			100*(d.Cost.WordsPerInstr()/d.TraceWordsPerInstr-1), d.Cost.MaxDepth)
		fmt.Fprintf(&b, "  static cost table:    %d words from observed mix vs %d consumed (%+.2f%% model error)\n",
			d.Pred.StaticWords(), d.Pred.Parser.Words, 100*d.StaticModelErr)
	}
	return b.String()
}
