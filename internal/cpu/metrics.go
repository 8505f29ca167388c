package cpu

import "systrace/internal/telemetry"

// RegisterMetrics registers sampled telemetry series over the CPU's
// architectural statistics. The counters are read at snapshot time, so
// the interpreter loop is not touched; labels (e.g. run="traced")
// distinguish multiple machines sharing one registry.
func (c *CPU) RegisterMetrics(r *telemetry.Registry, labels ...telemetry.Label) {
	s := &c.Stat
	r.Sample("cpu_instructions_retired_total",
		"machine instructions retired by the interpreter",
		func() uint64 { return s.Instret }, labels...)
	for cl := Class(0); cl < NClass; cl++ {
		cl := cl
		r.Sample("cpu_instructions_total",
			"machine instructions retired, split by instruction class",
			func() uint64 { return s.Classes[cl] },
			append([]telemetry.Label{telemetry.L("class", cl.String())}, labels...)...)
	}
	r.Sample("cpu_utlb_misses_total",
		"kuseg TLB misses taken through the dedicated refill vector (paper §4.1)",
		func() uint64 { return s.UTLBMisses }, labels...)
	r.Sample("cpu_ktlb_misses_total",
		"kseg2 TLB misses taken through the general exception vector",
		func() uint64 { return s.KTLBMisses }, labels...)
	r.Sample("cpu_exceptions_total", "exception entries of any cause",
		func() uint64 { return s.Exceptions }, labels...)
	r.Sample("cpu_interrupts_total", "external interrupts taken",
		func() uint64 { return s.Interrupts }, labels...)
	r.Sample("cpu_syscalls_total", "syscall instructions executed",
		func() uint64 { return s.Syscalls }, labels...)
	r.Sample("cpu_predecode_hits_total",
		"instructions dispatched from a predecoded text frame",
		func() uint64 { return c.pd.hits }, labels...)
	r.Sample("cpu_predecode_misses_total",
		"physical text frames decoded into micro-op arrays",
		func() uint64 { return c.pd.misses }, labels...)
	r.Sample("cpu_predecode_invalidations_total",
		"predecoded frames dropped after stores or DMA into their page",
		func() uint64 { return c.pd.invalidations }, labels...)
	r.Sample("cpu_superblocks_built_total",
		"superblocks linearized from hot predecoded frames",
		func() uint64 { return c.sb.built }, labels...)
	r.Sample("cpu_superblock_invalidations_total",
		"superblocks dropped after a store, DMA, or flush hit a chained frame",
		func() uint64 { return c.sb.invalidated }, labels...)
	r.Sample("cpu_superblock_entry_rejects_total",
		"dispatch entries refused by the guard (kernel-only chain in user mode, failed page-guard revalidation)",
		func() uint64 { return c.sb.entryRejects }, labels...)
	r.Sample("cpu_superblock_instructions_total",
		"instructions retired inside superblock dispatch",
		func() uint64 { return c.sb.instrs }, labels...)
	for _, e := range []struct {
		reason string
		n      *uint64
	}{
		{"end", &c.sb.exitEnd},
		{"mispredict", &c.sb.exitMispred},
		{"budget", &c.sb.exitBudget},
		{"pdexit", &c.sb.exitPDExit},
		{"exception", &c.sb.exitExc},
	} {
		n := e.n
		r.Sample("cpu_superblock_exits_total",
			"superblock dispatch exits, split by reason",
			func() uint64 { return *n },
			append([]telemetry.Label{telemetry.L("reason", e.reason)}, labels...)...)
	}
	c.sb.chainHist = r.Histogram("cpu_superblock_chain_instructions",
		"chain length at superblock build time, in instructions", labels...)
}
