package main

import (
	"fmt"

	"systrace/internal/telemetry"
)

// opLayers collects one op's traced-run samples across passes.
type opLayers struct {
	traced    []float64            // traced op wall time per pass
	layers    map[string][]float64 // "d:<span>" durations and "s:<span>" self times per pass
	run       tracedRun            // counters of the latest traced call
	bareInstr uint64
}

// perLayer is the traced run: set-up with its layer split, warm-up,
// the measured side of each prediction, then passes in which every op
// runs untraced and then rebuilt from layer calls under the tracer
// (measure ops also run bare). The untraced calls price the tracing
// overhead; the rebuilt calls must reproduce the untraced counts.
func (b *bench) perLayer(tr *tracer) (map[string]float64, error) {
	im, reps, _, err := b.setup()
	if err != nil {
		return nil, err
	}
	b.warmUp()
	predErr := b.measuredSide()

	ol := make([]opLayers, len(b.ops))
	for i := range ol {
		ol[i].layers = map[string][]float64{}
	}
	pt := b.timed(func(pass, i int) {
		o := b.ops[i]
		settle()
		tr.setOp(o.String(), pass)
		from := tr.mark()
		var run tracedRun
		secs, ok := b.attempt(i, classFidelity, func() (counts, error) {
			var err error
			if b.d.kind == kindMeasure {
				run, err = measureTraced(im, tr, o)
			} else {
				run, err = predictTraced(im, tr, b.d.kind, o)
			}
			return run.c, err
		})
		if !ok {
			return
		}
		if b.d.kind == kindMeasure {
			settle()
			b.attempted++
			res, instr, err := bareRun(tr, o)
			if err == nil && res != b.want[o.spec.Name] {
				err = &failure{class: classWrongResult, msg: fmt.Sprintf("bare exit status %d, want %d", res, b.want[o.spec.Name])}
			}
			if err != nil {
				b.fail(i, err)
				return
			}
			ol[i].bareInstr = instr
		}
		dur, self := tr.layerTimes(from)
		for k, v := range dur {
			ol[i].layers["d:"+k] = append(ol[i].layers["d:"+k], v)
		}
		for k, v := range self {
			ol[i].layers["s:"+k] = append(ol[i].layers["s:"+k], v)
		}
		ol[i].traced = append(ol[i].traced, secs)
		ol[i].run = run
	})

	traced := make([][]float64, len(ol))
	for i := range ol {
		traced[i] = ol[i].traced
	}
	b.report(pt, traced)
	return b.layerMetrics(ol, reps, pt, predErr), nil
}

// layerMetrics reduces the traced run to the per-layer metrics: each
// time is the sum over ops of the op's median across passes, each count
// the sum over ops.
func (b *bench) layerMetrics(ol []opLayers, reps []setupTimes, pt passTimes, predErr float64) map[string]float64 {
	layer := func(key string) float64 {
		var t float64
		for i := range ol {
			t += median(ol[i].layers[key])
		}
		return t
	}
	counter := func(name string, labels ...telemetry.Label) float64 {
		var t float64
		for i := range ol {
			t += sumSeries(ol[i].run.snap, name, labels...)
		}
		return t
	}
	var c counts
	var checked, bareInstr float64
	for i := range ol {
		r := ol[i].run.c
		c.GuestInstr += r.GuestInstr
		c.Cycles += r.Cycles
		c.TraceWords += r.TraceWords
		c.Events += r.Events
		c.UTLBMisses += r.UTLBMisses
		c.Predicted += r.Predicted
		c.Stream.Epochs += r.Stream.Epochs
		c.Stream.StallCycles += r.Stream.StallCycles
		c.Stream.RawBytes += r.Stream.RawBytes
		c.Stream.EncodedBytes += r.Stream.EncodedBytes
		checked += float64(ol[i].run.checkedWords)
		bareInstr += float64(ol[i].bareInstr)
	}
	stage := func(pick func(setupTimes) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = pick(r)
		}
		return median(xs)
	}

	m := map[string]float64{
		"userland.build_s":       stage(func(s setupTimes) float64 { return s.userland }),
		"kernel.build_s":         stage(func(s setupTimes) float64 { return s.kernel }),
		"pixie.count_s":          stage(func(s setupTimes) float64 { return s.pixie }),
		"verify.cfg_s":           stage(func(s setupTimes) float64 { return s.cfg }),
		"kernel.boot_s":          layer("d:boot"),
		"experiment.self_s":      layer("s:op"),
		"tracecheck.self_s":      layer("d:check"),
		"trace.parse_s":          layer("d:parse"),
		"memsys.tracesim_s":      layer("d:simulate"),
		"kernel.stream_decode_s": layer("s:epoch"),

		"machine.guest_instr":     float64(c.GuestInstr),
		"machine.doorbells":       counter("machine_trace_doorbells_total"),
		"machine.analysis_cycles": counter("machine_cycles_total", telemetry.L("phase", "analysis")),
		"cpu.superblock_exits":    counter("cpu_superblock_exits_total"),
		"cpu.predecode_hit_ratio": ratio(counter("cpu_predecode_hits_total"), counter("cpu_instructions_retired_total")),
		"memsys.stall_cycles":     counter("memsys_stall_cycles_total"),
		"memsys.tlb_miss_ratio":   ratio(counter("memsys_tlb_misses_total"), counter("memsys_tlb_accesses_total")),
		"memsys.icache_miss_ratio": ratio(counter("memsys_cache_misses_total", telemetry.L("cache", "icache")),
			counter("memsys_cache_accesses_total", telemetry.L("cache", "icache"))),
		"memsys.dcache_miss_ratio": ratio(counter("memsys_cache_misses_total", telemetry.L("cache", "dcache")),
			counter("memsys_cache_accesses_total", telemetry.L("cache", "dcache"))),
		"trace.events_per_word":        ratio(counter("trace_events_total"), counter("trace_words_parsed_total")),
		"kernel.stream_epochs":         float64(c.Stream.Epochs),
		"kernel.stream_compress_ratio": ratio(float64(c.Stream.RawBytes), float64(c.Stream.EncodedBytes)),
		"kernel.stream_stall_cycles":   float64(c.Stream.StallCycles),

		"sim.cycles":           float64(c.Cycles),
		"sim.trace_words":      float64(c.TraceWords),
		"sim.events":           float64(c.Events),
		"sim.utlb_misses":      float64(c.UTLBMisses),
		"sim.predicted_cycles": float64(c.Predicted),
		"pred_err_pct":         predErr,
		"fail_ratio":           ratio(float64(b.failed), float64(b.attempted)),
	}
	m["tracecheck.ns_per_word"] = 1e9 * ratio(m["tracecheck.self_s"], checked)
	m["trace.ns_per_word"] = 1e9 * ratio(m["trace.parse_s"], counter("trace_words_parsed_total"))
	m["memsys.ns_per_event"] = 1e9 * ratio(m["memsys.tracesim_s"], float64(c.Events))

	// The machine alone: on measure, the bare run (the timed run minus
	// it is the Timing model); on predictions, the run minus the
	// analysis callbacks on its goroutine.
	if b.d.kind == kindMeasure {
		m["machine.self_s"] = layer("d:bare-run")
		m["memsys.timing_s"] = layer("d:run") - m["machine.self_s"]
		m["machine.bare_guest_instr"] = bareInstr
		m["machine.mips"] = ratio(bareInstr, m["machine.self_s"]) / 1e6
	} else {
		m["machine.self_s"] = layer("s:run")
		m["machine.mips"] = ratio(float64(c.GuestInstr), m["machine.self_s"]) / 1e6
		m["trace_mwords_per_s"] = ratio(float64(c.TraceWords), sumMedians(pt.raw)) / 1e6
	}
	if b.d.kind == kindStream {
		m["kernel.consumer_busy_share"] = ratio(layer("d:epoch"), layer("d:run"))
	}

	// The share of retired instructions dispatched inside superblocks,
	// estimated as dispatches times the mean built chain length: the
	// CPU counts dispatches and chain lengths, not the instructions a
	// dispatch retired.
	var chainInstr, chains float64
	for i := range ol {
		for _, s := range ol[i].run.snap.Metrics {
			if s.Name == "cpu_superblock_chain_instructions" {
				chainInstr += float64(s.Sum)
				chains += float64(s.Count)
			}
		}
	}
	m["cpu.superblock_share"] = ratio(m["cpu.superblock_exits"]*ratio(chainInstr, chains), float64(c.GuestInstr))

	m["bench.untraced_wall_s"] = sumMedians(pt.raw)
	m["bench.traced_wall_s"] = layer("d:op")
	m["bench.trace_overhead_s"] = m["bench.traced_wall_s"] - m["bench.untraced_wall_s"]
	m["bench.calib_s"] = median(pt.cal)
	// Layer self times on the op's own goroutine, plus the residual,
	// over the traced op wall time: 1 when the split accounts for it.
	onOp := m["experiment.self_s"] + m["kernel.boot_s"] + m["machine.self_s"] + m["memsys.timing_s"]
	if b.d.kind == kindPredict {
		onOp += m["tracecheck.self_s"] + m["trace.parse_s"] + m["memsys.tracesim_s"]
	}
	m["bench.accounted_share"] = ratio(onOp, m["bench.traced_wall_s"])
	return m
}

// sumSeries sums every series named name whose labels include labels.
func sumSeries(s telemetry.Snapshot, name string, labels ...telemetry.Label) float64 {
	var t float64
	for _, x := range s.Metrics {
		if x.Name != name {
			continue
		}
		match := true
		for _, l := range labels {
			if x.Labels[l.Key] != l.Value {
				match = false
			}
		}
		if match {
			t += x.Value
		}
	}
	return t
}
