// Command lint runs one corpus check over the Table-1 workloads:
//
//	-pass static  instrumentation invariants of epoxie-instrumented images (internal/verify)
//	-pass guest   whole-binary lints over the dataflow value facts (internal/dataflow):
//	              unreachable blocks, jumps into block interiors, stack balance
//	              at returns, stores through wild pointers
//	-pass trace   conformance of whole-system trace streams to the images' CFGs
//	              and the kernel trace protocol (internal/tracecheck)
//
// static and guest check every workload × runtime kind (user, kernel,
// bare), built in memory, or the `epoxie -o` executables named as
// arguments; trace boots every workload × OS personality.
//
//	lint -pass guest -workload gcc -runtime bare
//	lint -pass static -json /tmp/gcc.traced.exe
//	lint -pass trace -compress -os mach   # over the compressed streaming drain
//
// Exit status: 0 when every cell checks clean, 1 when any diagnostic
// fires, 2 on usage or build errors.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"

	"systrace/internal/dataflow"
	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// finding is one checked cell: its -json element and its text lines.
// A cell is clean when it has no diagnostic lines.
type finding struct {
	doc     any
	name    string
	diags   []string
	summary string
}

// cell checks one image or stream of the corpus.
type cell func() (finding, error)

// options are the corpus selection flags.
type options struct {
	workload, runtime, os string
	seed                  uint
	compress              bool
}

// pass is one analysis: the flags it reads beyond the shared ones, the
// tail of its failure count, and its cells given flags and files.
type pass struct {
	flags  []string
	failed string
	cells  func(o options, files []string) ([]cell, error)
}

var passes = map[string]pass{
	"static": {[]string{"runtime"}, "images failed verification", imageCells(verifyImage)},
	"guest":  {[]string{"runtime"}, "images failed lint", imageCells(lintImage)},
	"trace":  {[]string{"os", "seed", "compress"}, "streams failed conformance", traceCells},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	passName := fs.String("pass", "", "analysis: static, guest, or trace")
	var o options
	fs.StringVar(&o.workload, "workload", "all", "Table-1 workload to check, or \"all\"")
	fs.StringVar(&o.runtime, "runtime", "all", "static, guest: runtime kind user, kernel, bare, or \"all\"")
	fs.StringVar(&o.os, "os", "all", "trace: OS personality ultrix, mach, or \"all\"")
	fs.UintVar(&o.seed, "seed", 1, "trace: page-mapping seed for the traced boot")
	fs.BoolVar(&o.compress, "compress", false,
		"trace: drain each traced boot through the compressed epoch-ring streaming path; the checker decodes the wire bytes itself")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "cells to check in parallel")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	quiet := fs.Bool("q", false, "print only diagnostics, not per-cell summaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, ok := passes[*passName]
	if !ok {
		fmt.Fprintf(stderr, "lint: unknown -pass %q (want static, guest, or trace)\n", *passName)
		return 2
	}
	var unused []string
	fs.Visit(func(f *flag.Flag) {
		if !slices.Contains([]string{"pass", "workload", "j", "json", "q"}, f.Name) && !slices.Contains(p.flags, f.Name) {
			unused = append(unused, "-"+f.Name)
		}
	})
	if len(unused) > 0 {
		fmt.Fprintf(stderr, "lint: -pass %s does not use %v\n", *passName, unused)
		return 2
	}
	cells, err := p.cells(o, fs.Args())
	if err == nil {
		var found []finding
		if found, err = check(cells, *jobs); err == nil {
			return report(found, *asJSON, *quiet, p.failed, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "lint:", err)
	return 2
}

// check runs the cells at most jobs at a time and returns their
// findings in cell order, or the cells' errors.
func check(cells []cell, jobs int) ([]finding, error) {
	found := make([]finding, len(cells))
	errs := make([]error, len(cells))
	sem := make(chan struct{}, max(jobs, 1))
	var wg sync.WaitGroup
	for i, c := range cells {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			found[i], errs[i] = c()
		}()
	}
	wg.Wait()
	return found, errors.Join(errs...)
}

// report prints the findings and returns the exit status.
func report(found []finding, asJSON, quiet bool, failed string, stdout, stderr io.Writer) int {
	dirty := 0
	docs := make([]any, len(found))
	for i, f := range found {
		docs[i] = f.doc
		if len(f.diags) > 0 {
			dirty++
		}
		if !asJSON {
			for _, d := range f.diags {
				fmt.Fprintf(stdout, "%s: %s\n", f.name, d)
			}
			if !quiet {
				fmt.Fprintf(stdout, "%s: %s\n", f.name, f.summary)
			}
		}
	}
	if asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(docs); err != nil {
			fmt.Fprintln(stderr, "lint:", err)
			return 2
		}
	}
	if dirty > 0 {
		fmt.Fprintf(stderr, "lint: %d of %d %s\n", dirty, len(found), failed)
		return 1
	}
	return 0
}

func workloads(name string) ([]workload.Spec, error) {
	if name == "all" {
		return workload.All(), nil
	}
	spec, ok := workload.ByName(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []workload.Spec{spec}, nil
}

// runtimeNames names the epoxie runtime kinds, indexed by kind.
var runtimeNames = []string{epoxie.UserRuntime: "user", epoxie.KernelRuntime: "kernel", epoxie.BareRuntime: "bare"}

// imageCells makes the cells of an image pass: one per encoded
// executable named in files, or else one per workload × runtime kind,
// each built once and handed to analyse.
func imageCells(analyse func(e *obj.Executable, runtime string) (finding, error)) func(options, []string) ([]cell, error) {
	return func(o options, files []string) ([]cell, error) {
		var cells []cell
		for _, path := range files {
			cells = append(cells, func() (finding, error) {
				data, err := os.ReadFile(path)
				if err != nil {
					return finding{}, err
				}
				e, err := obj.ReadExecutable(data)
				if err != nil {
					return finding{}, fmt.Errorf("%s: %v", path, err)
				}
				return analyse(e, "")
			})
		}
		if len(files) > 0 {
			if o.workload != "all" || o.runtime != "all" {
				return nil, fmt.Errorf("file arguments take no -workload or -runtime")
			}
			return cells, nil
		}
		specs, err := workloads(o.workload)
		if err != nil {
			return nil, err
		}
		if o.runtime != "all" && !slices.Contains(runtimeNames, o.runtime) {
			return nil, fmt.Errorf("unknown runtime kind %q (want user, kernel, bare, or all)", o.runtime)
		}
		for _, spec := range specs {
			for kind, rt := range runtimeNames {
				if o.runtime != "all" && o.runtime != rt {
					continue
				}
				cells = append(cells, func() (finding, error) {
					e, err := buildImage(spec, epoxie.RuntimeKind(kind))
					if err == nil {
						var f finding
						if f, err = analyse(e, rt); err == nil {
							return f, nil
						}
					}
					return finding{}, fmt.Errorf("%s/%s: %v", spec.Name, rt, err)
				})
			}
		}
		return cells, nil
	}
}

// buildImage compiles a workload with libc and instruments it for one
// runtime kind.
func buildImage(spec workload.Spec, kind epoxie.RuntimeKind) (*obj.Executable, error) {
	objs := []*obj.File{userland.Crt0(true)}
	for _, mod := range []*m.Module{spec.Build(), userland.Libc()} {
		o, err := mod.Compile(m.Options{})
		if err != nil {
			return nil, fmt.Errorf("compile: %v", err)
		}
		objs = append(objs, o)
	}
	b, err := epoxie.BuildInstrumented(objs, link.Options{
		Name: spec.Name, Entry: "_start",
		TextBase: obj.UserTextBase, DataBase: obj.UserDataBase,
	}, epoxie.Config{}, kind)
	if err != nil {
		return nil, fmt.Errorf("instrument: %v", err)
	}
	return b.Instr, nil
}

func verifyImage(e *obj.Executable, rt string) (finding, error) {
	r, err := verify.Executable(e)
	if err != nil {
		return finding{}, err
	}
	return imageFinding(struct {
		Runtime string `json:"runtime,omitempty"`
		*verify.Result
	}{rt, r}, r.Name, rt, r.Blocks, r.Checks, r.Diags), nil
}

func lintImage(e *obj.Executable, rt string) (finding, error) {
	r, err := dataflow.LintExecutable(e)
	if err != nil {
		return finding{}, err
	}
	return imageFinding(struct {
		Runtime string `json:"runtime,omitempty"`
		*dataflow.LintResult
	}{rt, r}, r.Name, rt, r.Blocks, r.Checks, r.Diags), nil
}

func imageFinding[D fmt.Stringer](doc any, name, rt string, blocks int, checks map[string]int, diags []D) finding {
	if rt != "" {
		name += "/" + rt
	}
	n := 0
	for _, c := range checks {
		n += c
	}
	return finding{doc, name, lines(diags), fmt.Sprintf("%d blocks, %d checks, %d diagnostics", blocks, n, len(diags))}
}

func lines[D fmt.Stringer](diags []D) []string {
	var s []string
	for _, d := range diags {
		s = append(s, d.String())
	}
	return s
}

// traceCells makes one cell per workload × OS personality: a traced
// boot whose stream runs through the conformance checker.
func traceCells(o options, files []string) ([]cell, error) {
	if len(files) > 0 {
		return nil, fmt.Errorf("-pass trace takes no file arguments, got %v", files)
	}
	specs, err := workloads(o.workload)
	if err != nil {
		return nil, err
	}
	flavors := map[string][]kernel.Flavor{
		"all": {kernel.Ultrix, kernel.Mach}, "ultrix": {kernel.Ultrix}, "mach": {kernel.Mach},
	}[o.os]
	if flavors == nil {
		return nil, fmt.Errorf("unknown OS %q (want ultrix, mach, or all)", o.os)
	}
	var cells []cell
	for _, spec := range specs {
		for _, flavor := range flavors {
			c := experiment.Config{Flavor: flavor, Seed: uint32(o.seed)}
			if o.compress {
				c.Stream = kernel.DefaultStream()
			}
			cells = append(cells, func() (finding, error) {
				r, err := c.Conformance(spec)
				if err != nil {
					return finding{}, err
				}
				diags := lines(r.Diags)
				if r.Truncated && len(r.Diags) == 0 {
					diags = append(diags, "stream truncated mid-protocol")
				}
				return finding{r, r.Name, diags, fmt.Sprintf("%d words, %d records, %d mem refs, %d markers, %d diagnostics",
					r.Words, r.Records, r.MemRefs, r.Markers, len(r.Diags))}, nil
			})
		}
	}
	return cells, nil
}
