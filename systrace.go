// Package systrace is a full reimplementation, as a deterministic
// simulation study, of the tracing systems described in
//
//	J. Bradley Chen, David W. Wall, Anita Borg.
//	Software Methods for System Address Tracing: Implementation and
//	Validation. WRL Research Report 94/6 (HotOS 1993).
//
// The library contains, built from scratch:
//
//   - a MIPS-R3000-like machine (CPU with branch delay slots and a
//     software-managed TLB, memory, disk/clock/console devices);
//   - a compiler toolchain in the style of Mahler (typed IR, code
//     generator, assembler, linker with symbol/relocation/basic-block
//     tables);
//   - epoxie, the link-time instrumenter that inserts bbtrace/memtrace
//     calls, steals three registers against in-memory shadows, and
//     performs all address correction statically (~2x text growth);
//   - pixie, the executable-level contrast tool with a runtime
//     translation table (~4-6x growth) and basic-block counting;
//   - two traced operating systems — a monolithic "Ultrix-like" kernel
//     and a microkernel "Mach-like" system with a user-level UX file
//     server — implementing per-process trace buffers, the in-kernel
//     buffer with generation/analysis mode switching, nested-exception
//     trace-state handling, TLB drop-ins, and the counted idle loop;
//   - the trace format and parsing library, the DECstation 5000/200
//     memory-system models (execution-driven and trace-driven), the
//     twelve Table-1 workloads, and the full validation harness that
//     regenerates every table and figure of the paper.
//
// This file is the facade: thin, documented re-exports of the pieces a
// downstream user needs. The examples/ directory shows the API in use;
// cmd/experiments regenerates the paper's evaluation.
package systrace

import (
	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/link"
	"systrace/internal/mahler"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/pixie"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// OS flavors.
const (
	Ultrix = kernel.Ultrix
	Mach   = kernel.Mach
)

// CPU execution engines for BootConfig.Engine.
const (
	EngineAuto      = kernel.EngineAuto
	EngineReference = kernel.EngineReference
)

// Re-exported core types. The underlying packages carry the full
// documentation.
type (
	// Module is a Mahler intermediate-language compilation unit.
	Module = mahler.Module
	// Program is a built user program (original + instrumented).
	Program = userland.Program
	// Executable is a linked image.
	Executable = obj.Executable
	// System is a booted simulated machine running one of the kernels.
	System = kernel.System
	// BootConfig configures a system instance.
	BootConfig = kernel.BootConfig
	// BootProc describes a process started at boot.
	BootProc = kernel.BootProc
	// Flavor selects the operating system personality.
	Flavor = kernel.Flavor
	// Engine pins the CPU execution engine for a boot.
	Engine = kernel.Engine
	// Event is one reconstructed trace reference.
	Event = trace.Event
	// Parser is the trace parsing library.
	Parser = trace.Parser
	// SideTable maps basic-block records to static block information.
	SideTable = trace.SideTable
	// TraceSim is the trace-driven memory-system simulator.
	TraceSim = memsys.TraceSim
	// Timing is the execution-driven memory-system model.
	Timing = memsys.Timing
	// Measured is a direct measurement of the uninstrumented system.
	Measured = experiment.Measured
	// Predicted is a trace-driven prediction.
	Predicted = experiment.Predicted
	// Distortion is the self-measurement dashboard: how much tracing
	// perturbs the traced system (§4).
	Distortion = experiment.Distortion
	// Registry is the telemetry metrics registry.
	Registry = telemetry.Registry
	// MetricsSnapshot is a point-in-time copy of a Registry's series.
	MetricsSnapshot = telemetry.Snapshot
	// Workload describes one Table-1 program.
	Workload = workload.Spec
)

// NewModule starts a Mahler IR module; see internal/mahler for the
// builder API.
func NewModule(name string) *Module { return mahler.NewModule(name) }

// BuildProgram compiles Mahler modules (plus the libc) into original
// and epoxie-instrumented executables with identical data layout.
func BuildProgram(name string, mods []*Module) (*Program, error) {
	return userland.Build(name, mods, mahler.Options{})
}

// BuildKernel builds one of the operating systems; traced kernels are
// epoxie-instrumented and carry the tracing subsystem.
func BuildKernel(flavor Flavor, traced bool) (*Executable, error) {
	return kernel.Build(kernel.Config{Flavor: flavor, Traced: traced})
}

// BuildDiskImage lays out a ramdisk holding the given files.
func BuildDiskImage(files map[string][]byte) ([]byte, error) {
	return kernel.BuildDiskImage(files)
}

// DefaultBoot returns the standard configuration for a flavor.
func DefaultBoot(f Flavor) BootConfig { return kernel.DefaultBoot(f) }

// Boot loads a kernel and processes onto a fresh machine.
func Boot(kernelExe *Executable, procs []BootProc, cfg BootConfig) (*System, error) {
	return kernel.Boot(kernelExe, procs, cfg)
}

// NewParser builds a trace parser over the kernel's side table.
func NewParser(kernelTable *SideTable) *Parser { return trace.NewParser(kernelTable) }

// NewSideTable builds the record-address lookup table of an
// instrumented image.
func NewSideTable(e *Executable) *SideTable {
	if e.Instr == nil {
		return trace.NewSideTable(nil)
	}
	return trace.NewSideTable(e.Instr.Blocks)
}

// NewTraceSim builds the analysis-side memory-system simulator for the
// DECstation 5000/200 model.
func NewTraceSim(policy memsys.PagePolicy, ramBytes uint32, seed uint32) *TraceSim {
	return memsys.NewTraceSim(memsys.DECstation5000(), policy, ramBytes>>12, seed)
}

// NewTiming builds the execution-driven DECstation 5000/200 model; use
// System.M.AttachTiming to connect it.
func NewTiming() *Timing { return memsys.NewTiming(memsys.DECstation5000()) }

// Page placement policies for the trace-driven simulator.
const (
	PolicySequential = memsys.PolicySequential
	PolicyRandom     = memsys.PolicyRandom
	PolicyColoring   = memsys.PolicyColoring
)

// Workloads returns the Table-1 suite.
func Workloads() []Workload { return workload.All() }

// WorkloadByName looks up one Table-1 workload.
func WorkloadByName(name string) (Workload, bool) { return workload.ByName(name) }

// Measure runs the uninstrumented workload under the execution-driven
// machine model (the paper's direct-measurement side).
func Measure(spec Workload, flavor Flavor, seed uint32) (*Measured, error) {
	return experiment.Measure(spec, flavor, seed)
}

// Predict runs the traced system and the trace-driven simulation (the
// paper's prediction side).
func Predict(spec Workload, flavor Flavor, seed uint32) (*Predicted, error) {
	return experiment.Predict(spec, flavor, seed)
}

// NewRegistry builds an empty telemetry registry; pass it to Distort
// (or the subsystems' RegisterMetrics methods) and export it with
// WritePrometheus or WriteJSON.
func NewRegistry() *Registry { return telemetry.New() }

// Distort runs the workload untraced and traced, computes the §4
// distortion factors, and (when reg is non-nil) registers every
// subsystem's series plus the dashboard gauges on it.
func Distort(spec Workload, flavor Flavor, seed uint32, reg *Registry) (*Distortion, error) {
	return experiment.Distort(spec, flavor, seed, reg)
}

// Instrument rewrites object files with epoxie and links original and
// instrumented executables (see internal/epoxie for details).
func Instrument(objs []*obj.File, opts link.Options) (*epoxie.Build, error) {
	return epoxie.BuildInstrumented(objs, opts, epoxie.Config{}, epoxie.UserRuntime)
}

// PixieTrace rewrites a linked executable pixie-style with a runtime
// translation table.
func PixieTrace(e *Executable) (*pixie.Result, error) {
	return pixie.Rewrite(e, pixie.ModeTrace)
}

// Figure2 reproduces the paper's instrumentation example.
func Figure2() (epoxie.Figure2Output, error) { return epoxie.Figure2() }
