// Command tracestat runs one workload both untraced and traced and
// emits a single machine-readable telemetry document: every subsystem
// counter (labelled run="untraced"/"traced") plus the computed
// distortion gauges. It is the scriptable face of the telemetry
// layer; tracesys -metrics text is the human one.
//
//	tracestat -workload sed -format json
//	tracestat -workload egrep -os mach -format prom
//
// Two observability modes replace the metrics document:
//
//	tracestat -workload sed -spans            # phase-span text Gantt
//	tracestat -workload sed -spans -format json
//	tracestat -workload sed -profile -format folded > sed.folded
//	  # guest-PC profile of an untraced boot; render with
//	  # flamegraph.pl sed.folded > sed.svg
//	tracestat -workload sed -profile          # per-function table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/telemetry"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

func main() {
	defer obs.DumpOnPanic()
	osName := flag.String("os", "ultrix", "ultrix or mach")
	name := flag.String("workload", "sed", "Table-1 workload")
	seed := flag.Uint("seed", 1, "page placement seed")
	format := flag.String("format", "", "json, prom, or text (with -profile: folded, text, or json)")
	spansOut := flag.Bool("spans", false, "run the experiments, then emit the phase-span timeline instead of metrics")
	profileOut := flag.Bool("profile", false, "profile an untraced boot by guest PC and emit the result instead of metrics")
	every := flag.Uint64("profile-every", 4096, "instructions between guest-PC samples")
	flag.Parse()

	flavor := kernel.Ultrix
	if *osName == "mach" {
		flavor = kernel.Mach
	}
	spec, ok := workload.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "tracestat: unknown workload %q\n", *name)
		os.Exit(1)
	}
	if *profileOut {
		if *format == "" {
			*format = "text"
		}
		runProfile(spec, flavor, uint32(*seed), *every, *format)
		return
	}
	if *format == "" {
		// The metrics document is for machines, the span Gantt for eyes.
		*format = "json"
		if *spansOut {
			*format = "text"
		}
	}
	switch *format {
	case "json", "prom", "text":
	default:
		// Reject up front: the runs below take real time.
		fmt.Fprintf(os.Stderr, "tracestat: unknown -format %q\n", *format)
		os.Exit(2)
	}

	reg := telemetry.New()
	d, err := experiment.Distort(spec, flavor, uint32(*seed), reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}

	// Statically verify the instrumented image and publish the per-rule
	// pass/fail counts next to the distortion gauges. The program comes
	// out of the experiment build cache, so this never rebuilds it.
	prog, err := experiment.Program(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	vres, err := verify.Executable(prog.Instr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat: verify:", err)
		os.Exit(1)
	}
	vres.RegisterMetrics(reg, telemetry.L("image", spec.Name))

	// The traced run already checked its own stream against the
	// instrumented CFGs and registered the per-rule conformance
	// counters on reg under run="traced".
	conf := d.Pred.Conformance

	if *spansOut {
		// The experiments above left their phase spans in the obs ring;
		// render the timeline they produced.
		switch *format {
		case "json":
			if err := obs.WriteTimelineJSON(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tracestat:", err)
				os.Exit(1)
			}
		default:
			obs.WriteGantt(os.Stdout)
		}
		return
	}

	switch *format {
	case "json":
		doc := struct {
			Workload string             `json:"workload"`
			OS       string             `json:"os"`
			Seed     uint32             `json:"seed"`
			Metrics  telemetry.Snapshot `json:"metrics"`
		}{spec.Name, flavor.String(), uint32(*seed), reg.Snapshot()}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			os.Exit(1)
		}
	case "prom":
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			os.Exit(1)
		}
	case "text":
		fmt.Print(d.Format())
		status := "clean"
		if !vres.Clean() {
			status = fmt.Sprintf("%d diagnostics", len(vres.Diags))
		}
		fmt.Printf("static verification: %d blocks, %s\n", vres.Blocks, status)
		for _, diag := range vres.Diags {
			fmt.Printf("  %s\n", diag)
		}
		cstatus := "clean"
		if !conf.Clean() {
			cstatus = fmt.Sprintf("%d diagnostics", len(conf.Diags))
		}
		fmt.Printf("trace conformance: %d words, %d records, %d markers, %s\n",
			conf.Words, conf.Records, conf.Markers, cstatus)
		for _, diag := range conf.Diags {
			fmt.Printf("  %s\n", diag)
		}
	}
}

// runProfile boots the workload untraced with the guest-PC sampler
// attached and emits the profile: folded stacks (flamegraph input),
// the per-function host-time table, or the table as JSON.
func runProfile(spec workload.Spec, flavor kernel.Flavor, seed uint32, every uint64, format string) {
	switch format {
	case "folded", "text", "json":
	default:
		fmt.Fprintf(os.Stderr, "tracestat: unknown -profile -format %q (folded, text, or json)\n", format)
		os.Exit(2)
	}
	prof := obs.NewProfile()
	sys, _, err := experiment.Boot(spec, flavor, false, seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	sys.M.CPU.SetProfiler(every, prof.Hit)
	if err := sys.Run(experiment.RunBudget); err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
		os.Exit(1)
	}
	procs := map[uint32]*obj.Executable{}
	for i, bp := range sys.Procs {
		procs[uint32(i+1)] = bp.Exe
	}
	res := obs.NewImageResolver(sys.Kernel, procs)
	switch format {
	case "folded":
		prof.WriteFolded(os.Stdout, res)
	case "text":
		prof.WriteTable(os.Stdout, res)
	case "json":
		doc := struct {
			Workload  string         `json:"workload"`
			OS        string         `json:"os"`
			Every     uint64         `json:"sample_every_instructions"`
			Samples   int            `json:"samples"`
			Functions []obs.FuncTime `json:"functions"`
		}{spec.Name, flavor.String(), every, prof.Len(), prof.Table(res)}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fmt.Fprintln(os.Stderr, "tracestat:", err)
			os.Exit(1)
		}
	}
}
