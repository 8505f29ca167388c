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
		"instructions dispatched from decoded micro-ops, all inside superblock dispatch (equals cpu_superblock_instructions_total)",
		func() uint64 { return c.sb.instrs }, labels...)
	r.Sample("cpu_frame_drops_total",
		"superblock text frames dropped after stores or DMA into their page",
		func() uint64 { return c.sb.frameDrops }, labels...)
	r.Sample("cpu_superblocks_built_total",
		"superblocks linearized from hot text decoded from RAM",
		func() uint64 { return c.sb.built }, labels...)
	r.Sample("cpu_superblock_invalidations_total",
		"superblocks dropped after a store, DMA, or flush hit a chained frame",
		func() uint64 { return c.sb.invalidated }, labels...)
	r.Sample("cpu_superblock_entry_rejects_total",
		"dispatch entries refused by the guard (kernel-only chain in user mode, failed page-guard revalidation)",
		func() uint64 { return c.sb.entryRejects }, labels...)
	for _, e := range []struct {
		result string
		n      *uint64
	}{
		{"hit", &c.sb.probeHits},
		{"miss", &c.sb.probeMisses},
		{"reject", &c.sb.entryRejects},
	} {
		n := e.n
		r.Sample("cpu_superblock_probes_total",
			"entry-table probes (a StepN at its PC, or a chain exit at its continuation), split by outcome: entered, no chain for the address and address space, or refused by an entry guard",
			func() uint64 { return *n },
			append([]telemetry.Label{telemetry.L("result", e.result)}, labels...)...)
	}
	for why, name := range [nBuildFails]string{"ender", "fetch"} {
		n := &c.sb.buildFails[why]
		r.Sample("cpu_superblock_build_failures_total",
			"superblock builds that installed no chain: entry (or its branch's slot) a chain ender, or entry text not fetchable from cached RAM",
			func() uint64 { return *n },
			append([]telemetry.Label{telemetry.L("reason", name)}, labels...)...)
	}
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
	for kind, kn := range [nTLBKinds]string{"load", "store", "fetch"} {
		for cause, cn := range [nRefillCauses]string{"cold", "conflict", "generation"} {
			n := &c.refills[kind][cause]
			r.Sample("cpu_soft_tlb_refills_total",
				"soft-TLB refills through translate, split by access kind and by what the set held (never-filled, another page, this page from an older generation)",
				func() uint64 { return *n },
				append([]telemetry.Label{telemetry.L("kind", kn), telemetry.L("cause", cn)}, labels...)...)
		}
	}
	c.sb.chainHist = r.Histogram("cpu_superblock_chain_instructions",
		"chain length at superblock build time, in instructions", labels...)
}
