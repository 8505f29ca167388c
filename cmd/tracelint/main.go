// Command tracelint checks whole-system trace streams for
// conformance against the instrumented kernel and user images' control
// flow graphs (see internal/tracecheck). It boots each workload under
// the selected OS personalities in the simulator, streams the traced
// run through the checker, and reports every protocol violation: a
// record that is not a real block head, an illegal CFG edge, a wrong
// memory-reference count, an out-of-range address, or a broken
// kernel-nesting / scheduling / epoch marker sequence.
//
//	tracelint                      # whole corpus: every workload x OS
//	tracelint -workload sed -os mach
//	tracelint -json -seed 7
//	tracelint -compress            # corpus over the compressed streaming drain
//
// Exit status: 0 when every stream checks clean, 1 when any
// diagnostic fires, 2 on usage or build errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/tracecheck"
	"systrace/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracelint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wl := fs.String("workload", "all", "Table-1 workload to trace and check, or \"all\"")
	osName := fs.String("os", "all", "OS personality: ultrix, mach, or \"all\"")
	seed := fs.Uint("seed", 1, "page-mapping seed for the traced boot")
	jobs := fs.Int("j", runtime.GOMAXPROCS(0), "traced system runs to execute in parallel")
	compress := fs.Bool("compress", false,
		"drain each traced boot through the compressed epoch-ring streaming path; the checker decodes the wire bytes itself")
	asJSON := fs.Bool("json", false, "emit results as JSON")
	quiet := fs.Bool("q", false, "print only diagnostics, not per-stream summaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintln(stderr, "tracelint: unexpected arguments", fs.Args())
		return 2
	}

	var specs []workload.Spec
	if *wl == "all" {
		specs = workload.All()
	} else {
		spec, ok := workload.ByName(*wl)
		if !ok {
			fmt.Fprintf(stderr, "tracelint: unknown workload %q\n", *wl)
			return 2
		}
		specs = []workload.Spec{spec}
	}
	var flavors []kernel.Flavor
	switch *osName {
	case "all":
		flavors = []kernel.Flavor{kernel.Ultrix, kernel.Mach}
	case "ultrix":
		flavors = []kernel.Flavor{kernel.Ultrix}
	case "mach":
		flavors = []kernel.Flavor{kernel.Mach}
	default:
		fmt.Fprintf(stderr, "tracelint: unknown OS %q (want ultrix, mach, or all)\n", *osName)
		return 2
	}

	type job struct {
		spec   workload.Spec
		flavor kernel.Flavor
	}
	var jobsList []job
	for _, s := range specs {
		for _, f := range flavors {
			jobsList = append(jobsList, job{s, f})
		}
	}

	results := make([]*tracecheck.Result, len(jobsList))
	errs := make([]error, len(jobsList))
	par := *jobs
	if par < 1 {
		par = 1
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i, j := range jobsList {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c := experiment.Config{Flavor: j.flavor, Seed: uint32(*seed)}
			if *compress {
				c.Stream = kernel.DefaultStream()
			}
			results[i], errs[i] = c.Conformance(j.spec)
		}(i, j)
	}
	wg.Wait()

	for _, err := range errs {
		if err != nil {
			fmt.Fprintln(stderr, "tracelint:", err)
			return 2
		}
	}

	dirty := 0
	for _, r := range results {
		if !r.Clean() {
			dirty++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(results); err != nil {
			fmt.Fprintln(stderr, "tracelint:", err)
			return 2
		}
	} else {
		for _, r := range results {
			for _, d := range r.Diags {
				fmt.Fprintf(stdout, "%s: %s\n", r.Name, d)
			}
			if r.Truncated && len(r.Diags) == 0 {
				fmt.Fprintf(stdout, "%s: stream truncated mid-protocol\n", r.Name)
			}
			if !*quiet {
				fmt.Fprintf(stdout, "%s: %d words, %d records, %d mem refs, %d markers, %d diagnostics\n",
					r.Name, r.Words, r.Records, r.MemRefs, r.Markers, len(r.Diags))
			}
		}
	}
	if dirty > 0 {
		fmt.Fprintf(stderr, "tracelint: %d of %d streams failed conformance\n", dirty, len(results))
		return 1
	}
	return 0
}
