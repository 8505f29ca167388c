package kernel

import (
	"fmt"

	"systrace/internal/epoxie"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/obs"
)

// Build compiles and links a kernel. Traced kernels are instrumented
// by epoxie with the kernel-variant runtime (which cannot trap on
// buffer full and instead raises the full flag and writes into the
// slack region, §3.3).
func Build(cfg Config) (*obj.Executable, error) {
	sp := obs.BeginDetail("kernel_build", buildDetail(cfg))
	defer sp.End()
	mod := Module(cfg)
	csp := obs.Begin("mahler_compile")
	kobj, err := mod.Compile(m.Options{})
	csp.End()
	if err != nil {
		return nil, fmt.Errorf("kernel: %w", err)
	}
	objs := []*obj.File{VectorsObj(cfg.Traced), kobj}
	lopt := link.Options{
		Name:     "vmunix-" + cfg.Flavor.String(),
		Entry:    "_start",
		TextBase: KernelTextVA,
		DataBase: KernelDataVA,
	}
	var exe *obj.Executable
	if cfg.Traced {
		b, err := epoxie.BuildInstrumented(objs, lopt, epoxie.Config{Flow: cfg.Flow}, epoxie.KernelRuntime)
		if err != nil {
			return nil, fmt.Errorf("kernel: %w", err)
		}
		exe = b.Instr
	} else {
		lsp := obs.Begin("link")
		exe, err = link.Link(objs, lopt)
		lsp.End()
		if err != nil {
			return nil, fmt.Errorf("kernel: %w", err)
		}
	}
	if exe.TextEnd() > KernelTextVA+0x180000 {
		return nil, fmt.Errorf("kernel: text too large (ends 0x%x)", exe.TextEnd())
	}
	if exe.BSSEnd() > BootInfoVA {
		return nil, fmt.Errorf("kernel: data+bss too large (ends 0x%x)", exe.BSSEnd())
	}
	return exe, nil
}

// buildDetail labels a kernel build's span: flavor, and whether the
// image is traced.
func buildDetail(cfg Config) string {
	if cfg.Traced {
		return cfg.Flavor.String() + "/traced"
	}
	return cfg.Flavor.String()
}
