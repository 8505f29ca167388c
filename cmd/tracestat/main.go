// Command tracestat boots one Table-1 workload in the simulated system
// and reports on the run. The flags -os, -workload and -seed pick the
// run; the subcommand picks the report:
//
//	tracestat report  -os mach -workload compress  # traced-run statistics and predicted time
//	tracestat metrics -format json|prom|text       # untraced + traced telemetry; text adds the
//	                                               # report, distortion dashboard and verifiers
//	tracestat spans   -format text|json            # phase-span timeline of those runs
//	tracestat profile -format text|folded|json -every 4096
//	                                               # guest-PC profile of an untraced boot
//	tracestat view    -n 40 -skip 2000             # window of the reconstructed reference stream
//	tracestat serve   localhost:6060               # the traced boot, then metrics' runs, live at
//	                                               # /metrics(.json) /spans(.json) /events /profile /debug/pprof/
//
// Exit status: 0 on success, 1 when a run fails, 2 on usage errors,
// which are all rejected before any simulation starts.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/machine"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// request is one parsed invocation.
type request struct {
	spec         workload.Spec
	flavor       kernel.Flavor
	seed         uint32
	format       string
	every        uint64
	n, skip      int
	args         []string
	stdout, errw io.Writer
}

// command is one subcommand: the flags it reads beyond -os -workload
// -seed, its -format values (default first), and its argument count.
type command struct {
	flags   []string
	formats []string
	nargs   int
	run     func(r *request) error
}

var commands = map[string]command{
	"report":  {nil, nil, 0, runReport},
	"metrics": {[]string{"format"}, []string{"json", "prom", "text"}, 0, runMetrics},
	"spans":   {[]string{"format"}, []string{"text", "json"}, 0, runSpans},
	"profile": {[]string{"format", "every"}, []string{"text", "folded", "json"}, 0, runProfile},
	"serve":   {nil, nil, 1, runServe},
	"view":    {[]string{"n", "skip"}, nil, 0, runView},
}

func main() {
	defer obs.DumpOnPanic()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "tracestat: "+format+"\n", a...)
		return 2
	}
	if len(args) == 0 {
		args = []string{""}
	}
	cmd, ok := commands[args[0]]
	if !ok {
		return usage("unknown subcommand %q (want report, metrics, spans, profile, serve, or view)", args[0])
	}
	fs := flag.NewFlagSet("tracestat "+args[0], flag.ContinueOnError)
	fs.SetOutput(stderr)
	osName := fs.String("os", "ultrix", "OS personality: ultrix or mach")
	name := fs.String("workload", "sed", "Table-1 workload")
	seed := fs.Uint("seed", 1, "page placement seed")
	r := &request{stdout: stdout, errw: stderr}
	fs.StringVar(&r.format, "format", "", "metrics: json, prom or text; spans: text or json; profile: text, folded or json")
	fs.Uint64Var(&r.every, "every", 4096, "profile: instructions between guest-PC samples")
	fs.IntVar(&r.n, "n", 48, "view: events to print")
	fs.IntVar(&r.skip, "skip", 5000, "view: events to skip before printing")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	r.args = fs.Args()
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains([]string{"os", "workload", "seed"}, f.Name) && !slices.Contains(cmd.flags, f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if r.format == "" && cmd.formats != nil {
		r.format = cmd.formats[0]
	}
	r.flavor, ok = map[string]kernel.Flavor{"ultrix": kernel.Ultrix, "mach": kernel.Mach}[*osName]
	switch {
	case len(unused) > 0:
		return usage("%s does not use %v", args[0], unused)
	case len(r.args) != cmd.nargs:
		return usage("%s takes %d positional arguments, got %q", args[0], cmd.nargs, r.args)
	case r.every == 0:
		return usage("-every must be positive")
	case !ok:
		return usage("unknown OS %q (want ultrix or mach)", *osName)
	case cmd.formats != nil && !slices.Contains(cmd.formats, r.format):
		return usage("unknown %s -format %q (want one of %v)", args[0], r.format, cmd.formats)
	}
	if r.spec, ok = workload.ByName(*name); !ok {
		return usage("unknown workload %q", *name)
	}
	r.seed = uint32(*seed)
	if err := cmd.run(r); err != nil {
		fmt.Fprintln(stderr, "tracestat:", err)
		return 1
	}
	return 0
}

// runReport prints the traced run's statistics and predicted time.
func runReport(r *request) error {
	pred, err := experiment.Predict(r.spec, r.flavor, r.seed)
	if err == nil {
		writeReport(r.stdout, pred)
	}
	return err
}

func writeReport(w io.Writer, pred *experiment.Predicted) {
	fmt.Fprintf(w, "traced %s on %v:\n", pred.Name, pred.Flavor)
	fmt.Fprintf(w, "  traced machine instructions: %d\n", pred.TracedInstr)
	fmt.Fprintf(w, "  trace words drained:          %d (%d analysis phases)\n", pred.TraceWords, pred.ModeSwitches)
	fmt.Fprintf(w, "  reconstructed references:     %d\n", pred.Events)
	fmt.Fprintf(w, "  idle-loop instructions:       %d (x%d = I/O stall estimate)\n", pred.IdleInstr, experiment.IdleScale)
	fmt.Fprintf(w, "  simulated TLB misses:         %d\n", pred.UTLBMisses)
	fmt.Fprintf(w, "  predicted time: %.4fs = cpu %.4f + mem %.4f + fp %.4f + io %.4f\n",
		pred.Seconds,
		machine.Seconds(pred.CPUCycles), machine.Seconds(pred.MemStalls),
		machine.Seconds(pred.ArithStalls), machine.Seconds(pred.IOStalls))
	fmt.Fprintf(w, "  workload result: %d\n", pred.Result)
}

// runMetrics runs the workload untraced and traced and emits the
// telemetry document: every subsystem counter (labelled
// run="untraced"/"traced"), the distortion gauges, and the per-rule
// pass/fail counts of statically verifying the instrumented image. As
// text it is the traced report, the distortion dashboard, and the
// static and trace verification verdicts.
func runMetrics(r *request) error {
	reg := telemetry.New()
	d, err := experiment.Distort(r.spec, r.flavor, r.seed, reg)
	if err != nil {
		return err
	}
	// The program comes out of the experiment build cache, so
	// verifying it never rebuilds it.
	prog, err := experiment.Program(r.spec)
	if err != nil {
		return err
	}
	vres, err := verify.Executable(prog.Instr)
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	vres.RegisterMetrics(reg, telemetry.L("image", r.spec.Name))
	w := r.stdout
	switch r.format {
	case "json":
		return writeJSON(w, struct {
			Workload string             `json:"workload"`
			OS       string             `json:"os"`
			Seed     uint32             `json:"seed"`
			Metrics  telemetry.Snapshot `json:"metrics"`
		}{r.spec.Name, r.flavor.String(), r.seed, reg.Snapshot()})
	case "prom":
		return reg.WritePrometheus(w)
	}
	writeReport(w, d.Pred)
	fmt.Fprintf(w, "\n%s", d.Format())
	fmt.Fprintf(w, "static verification: %d blocks, %s", vres.Blocks, verdict(vres.Clean(), vres.Diags))
	// The traced run checked its own stream against the instrumented
	// CFGs and registered the per-rule conformance counters on reg.
	conf := d.Pred.Conformance
	fmt.Fprintf(w, "trace conformance: %d words, %d records, %d markers, %s",
		conf.Words, conf.Records, conf.Markers, verdict(conf.Clean(), conf.Diags))
	return nil
}

// verdict is "clean", or the diagnostic count and one indented line
// per diagnostic.
func verdict[D fmt.Stringer](clean bool, diags []D) string {
	if clean {
		return "clean\n"
	}
	s := fmt.Sprintf("%d diagnostics\n", len(diags))
	for _, d := range diags {
		s += "  " + d.String() + "\n"
	}
	return s
}

func writeJSON(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runSpans runs the workload untraced and traced and emits the
// phase-span timeline those runs left in the obs ring.
func runSpans(r *request) error {
	if _, err := experiment.Distort(r.spec, r.flavor, r.seed, telemetry.New()); err != nil {
		return err
	}
	if r.format == "json" {
		return obs.WriteTimelineJSON(r.stdout)
	}
	obs.WriteGantt(r.stdout)
	return nil
}

// resolver names guest PCs by function in sys's kernel and process
// images.
func resolver(sys *kernel.System) obs.Resolver {
	procs := map[uint32]*obj.Executable{}
	for i, bp := range sys.Procs {
		procs[uint32(i+1)] = bp.Exe
	}
	return obs.NewImageResolver(sys.Kernel, procs)
}

// runProfile boots the workload untraced with the guest-PC sampler
// attached and emits the profile: the per-function host-time table,
// folded stacks (flamegraph input), or the table as JSON.
func runProfile(r *request) error {
	prof := obs.NewProfile()
	sys, _, err := experiment.Boot(r.spec, r.flavor, false, r.seed)
	if err != nil {
		return err
	}
	sys.M.CPU.SetProfiler(r.every, prof.Hit)
	if err := sys.Run(experiment.RunBudget); err != nil {
		return err
	}
	res := resolver(sys)
	switch r.format {
	case "folded":
		prof.WriteFolded(r.stdout, res)
	case "json":
		return writeJSON(r.stdout, struct {
			Workload  string         `json:"workload"`
			OS        string         `json:"os"`
			Every     uint64         `json:"sample_every_instructions"`
			Samples   int            `json:"samples"`
			Functions []obs.FuncTime `json:"functions"`
		}{r.spec.Name, r.flavor.String(), r.every, prof.Len(), prof.Table(res)})
	default:
		prof.WriteTable(r.stdout, res)
	}
	return nil
}

// runServe runs the traced boot with the guest-PC sampler attached (it
// feeds the spans, events and profile), then the distortion experiment
// that fills the telemetry registry, while serving both over HTTP.
func runServe(r *request) error {
	reg := telemetry.New()
	prof := obs.NewProfile()
	sys, _, err := experiment.Boot(r.spec, r.flavor, true, r.seed)
	if err != nil {
		return err
	}
	sys.M.CPU.SetProfiler(r.every, prof.Hit) // the default: serve takes no -every
	go func() {
		if err := sys.Run(experiment.RunBudget); err != nil {
			fmt.Fprintln(r.errw, "tracestat: run:", err)
		} else if _, err := experiment.Distort(r.spec, r.flavor, r.seed, reg); err != nil {
			fmt.Fprintln(r.errw, "tracestat: distort:", err)
		} else {
			fmt.Fprintln(r.errw, "tracestat: runs complete; still serving")
		}
	}()
	fmt.Fprintf(r.errw, "tracestat: serving observability on http://%s\n", r.args[0])
	return http.ListenAndServe(r.args[0], obs.Handler(reg, prof, resolver(sys)))
}

// runView runs the traced boot and prints a window of the
// reconstructed reference stream (the interleaved kernel and user
// addresses of Figure 1), then the parsing library's statistics.
func runView(r *request) error {
	sys, _, err := experiment.Boot(r.spec, r.flavor, true, r.seed)
	if err != nil {
		return err
	}
	p := trace.NewParser(trace.NewSideTable(sys.Kernel.Instr.Blocks))
	for i, bp := range sys.Procs {
		if bp.Exe.Instr != nil {
			p.AddProcess(i+1, trace.NewSideTable(bp.Exe.Instr.Blocks))
		}
	}
	printed, seen := 0, 0
	// Keep a mid-stream parse error instead of failing inside the
	// drain callback, so the run still finishes.
	var parseErr error
	sys.OnTrace = func(words []uint32) {
		if parseErr != nil {
			return
		}
		evs, err := p.Parse(words, nil)
		if parseErr = err; err != nil {
			return
		}
		for _, ev := range evs {
			if seen++; seen <= r.skip || printed >= r.n {
				continue
			}
			printed++
			who, tag := fmt.Sprintf("user%-2d", ev.Pid), ""
			if ev.Kernel {
				who = "kernel"
			}
			if ev.Idle {
				tag = " idle"
			}
			fmt.Fprintf(r.stdout, "%s  %v 0x%08x%s\n", who, ev.Kind, ev.Addr, tag)
		}
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		return fmt.Errorf("running %s: %v", r.spec.Name, err)
	}
	if err := cmp.Or(parseErr, p.Finish()); err != nil {
		return fmt.Errorf("parsing trace of %s: %v", r.spec.Name, err)
	}
	fmt.Fprintf(r.stdout, "\n%d events total; %d bb records, %d memory references, %d markers, "+
		"%d context switches, max nesting %d, %d idle instructions\n",
		seen, p.Records, p.MemRefs, p.Markers, p.CtxSws, p.MaxDepth, p.IdleInstr)
	return nil
}
