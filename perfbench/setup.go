package main

import (
	"fmt"
	"time"

	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/isa"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/pixie"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// images are one workload's builds, made by direct layer calls: the
// same work the experiment package memoizes before its first run
// (kernels, programs, pixie arithmetic-stall counts, and the CFGs the
// conformance checker walks). The traced pipelines boot from them.
type images struct {
	kernels map[kernel.Config]*obj.Executable
	progs   map[string]*userland.Program // by program name; "ux" is the Mach server
	arith   map[string]uint64            // pixie arithmetic stalls by program
	cfgs    map[*obj.Executable]*verify.CFG
}

// setupTimes splits one set-up by layer, in seconds.
type setupTimes struct {
	kernel, userland, pixie, cfg float64
}

func (s setupTimes) total() float64 { return s.kernel + s.userland + s.pixie + s.cfg }

// buildImages performs one complete set-up for workload d over specs.
func buildImages(d def, specs []workload.Spec) (*images, setupTimes, error) {
	im := &images{
		kernels: map[kernel.Config]*obj.Executable{},
		progs:   map[string]*userland.Program{},
		arith:   map[string]uint64{},
		cfgs:    map[*obj.Executable]*verify.CFG{},
	}
	var st setupTimes

	t := time.Now()
	kcfgs := []kernel.Config{}
	for _, f := range d.flavors {
		kcfgs = append(kcfgs, kernel.Config{Flavor: f, Traced: d.traced(), Flow: epoxie.FlowOn})
	}
	if d.traced() {
		// The pixie count run boots the untraced Ultrix kernel.
		kcfgs = append(kcfgs, kernel.Config{Flavor: kernel.Ultrix, Flow: epoxie.FlowOn})
	}
	for _, kc := range kcfgs {
		if im.kernels[kc] != nil {
			continue
		}
		exe, err := kernel.Build(kc)
		if err != nil {
			return nil, st, err
		}
		im.kernels[kc] = exe
	}
	st.kernel = time.Since(t).Seconds()

	t = time.Now()
	for _, spec := range specs {
		p, err := userland.BuildFlow(spec.Name, []*m.Module{spec.Build()}, m.Options{}, epoxie.FlowOn)
		if err != nil {
			return nil, st, err
		}
		im.progs[spec.Name] = p
	}
	for _, f := range d.flavors {
		if f == kernel.Mach {
			p, err := userland.BuildFlow("ux", []*m.Module{userland.UXServer()}, m.Options{}, epoxie.FlowOn)
			if err != nil {
				return nil, st, err
			}
			im.progs["ux"] = p
		}
	}
	st.userland = time.Since(t).Seconds()

	if !d.traced() {
		return im, st, nil
	}
	t = time.Now()
	for _, spec := range specs {
		n, err := im.pixieCount(spec)
		if err != nil {
			return nil, st, err
		}
		im.arith[spec.Name] = n
	}
	st.pixie = time.Since(t).Seconds()

	t = time.Now()
	var exes []*obj.Executable
	for _, f := range d.flavors {
		exes = append(exes, im.kernels[kernel.Config{Flavor: f, Traced: true, Flow: epoxie.FlowOn}])
	}
	for _, p := range im.progs {
		exes = append(exes, p.Instr)
	}
	for _, e := range exes {
		g, err := verify.NewCFG(e)
		if err != nil {
			return nil, st, err
		}
		im.cfgs[e] = g
	}
	st.cfg = time.Since(t).Seconds()
	return im, st, nil
}

// boot assembles a system for one op exactly as the experiment package
// does: the Mach server first, the workload's disk image, the standard
// boot configuration, and for traced boots the trace buffer, the
// time-dilation clock scaling and the drain configuration (bufBytes 0
// keeps the default buffer).
func (im *images) boot(o op, traced bool, override *obj.Executable,
	stream kernel.StreamConfig, bufBytes uint32) (*kernel.System, int, error) {
	kexe := im.kernels[kernel.Config{Flavor: o.flavor, Traced: traced, Flow: epoxie.FlowOn}]
	prog := im.progs[o.spec.Name]
	if kexe == nil || prog == nil {
		return nil, 0, fmt.Errorf("boot %v: image not built", o)
	}
	pick := func(p *userland.Program) *obj.Executable {
		if traced {
			return p.Instr
		}
		return p.Orig
	}
	var procs []kernel.BootProc
	pid := 1
	if o.flavor == kernel.Mach {
		procs = append(procs, kernel.BootProc{Exe: pick(im.progs["ux"]), IsServer: true})
		pid = 2
	}
	exe := pick(prog)
	if override != nil {
		exe = override
	}
	procs = append(procs, kernel.BootProc{Exe: exe})
	disk, err := kernel.BuildDiskImage(o.spec.Files)
	if err != nil {
		return nil, 0, err
	}
	cfg := kernel.DefaultBoot(o.flavor)
	cfg.DiskImage = disk
	cfg.MapSeed = o.seed
	if traced {
		cfg.TraceBufBytes = trace.DefaultKernelBufBytes
		if bufBytes != 0 {
			cfg.TraceBufBytes = bufBytes
		}
		cfg.ClockInterval *= experiment.IdleScale
		cfg.Stream = stream
	}
	sys, err := kernel.Boot(kexe, procs, cfg)
	if err != nil {
		return nil, 0, err
	}
	return sys, pid, nil
}

// pixieCount runs spec's pixie basic-block counting binary on untraced
// Ultrix and charges each block's floating-point latency by its
// execution count: the arithmetic-stall term of a prediction (§5.1).
func (im *images) pixieCount(spec workload.Spec) (uint64, error) {
	prog := im.progs[spec.Name]
	res, err := pixie.RewriteWithBook(prog.Orig, pixie.ModeCount, trace.UserTraceVA)
	if err != nil {
		return 0, err
	}
	o := op{spec: spec, flavor: kernel.Ultrix, seed: 1}
	sys, pid, err := im.boot(o, false, res.Exe, kernel.StreamConfig{}, 0)
	if err != nil {
		return 0, err
	}
	if err := sys.Run(experiment.RunBudget); err != nil {
		return 0, fmt.Errorf("pixie count %s: %w", spec.Name, err)
	}
	var stalls uint64
	for bi := range prog.Orig.Blocks {
		b := &prog.Orig.Blocks[bi]
		cnt, ok := sys.ReadUserWord(pid, res.CountsVA+uint32(bi)*4)
		if !ok || cnt == 0 {
			continue
		}
		var lat uint64
		for k := int32(0); k < b.NInstr; k++ {
			w := prog.Orig.Text[(b.Addr-prog.Orig.TextBase)/4+uint32(k)]
			lat += uint64(isa.FPLatency(w))
		}
		stalls += uint64(cnt) * lat
	}
	return stalls, nil
}
