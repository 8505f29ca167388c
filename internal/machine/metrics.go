package machine

import "systrace/internal/telemetry"

// RegisterMetrics registers sampled telemetry series over machine time
// and the devices. Machine cycles are exported split by phase — cpu
// (instructions retired), mem_stall (memory-system stall cycles from
// an attached execution-driven model), and analysis (cycles consumed
// by trace-analysis phases behind the doorbell) — so the
// generation/analysis duty cycle of the tracing system is directly
// readable from the metrics document.
func (m *Machine) RegisterMetrics(r *telemetry.Registry, labels ...telemetry.Label) {
	phase := func(p string) []telemetry.Label {
		return append([]telemetry.Label{telemetry.L("phase", p)}, labels...)
	}
	const cyclesHelp = "machine cycles by phase: cpu, mem_stall, analysis"
	r.Sample("machine_cycles_total", cyclesHelp,
		func() uint64 { return m.CPU.Stat.Instret }, phase("cpu")...)
	r.Sample("machine_cycles_total", cyclesHelp, func() uint64 {
		if m.stall == nil {
			return 0
		}
		return m.stall.StallCycles()
	}, phase("mem_stall")...)
	r.Sample("machine_cycles_total", cyclesHelp,
		func() uint64 { return m.extraCycles }, phase("analysis")...)
	r.Sample("machine_overlap_analysis_cycles_total",
		"analysis cycles retired concurrently with generation under the streaming drain (not part of machine time)",
		func() uint64 { return m.overlapCycles }, labels...)

	r.Sample("machine_clock_interrupts_total", "interval clock interrupts raised",
		func() uint64 { return m.Clock.Raised }, labels...)
	r.Sample("machine_disk_reads_total", "disk read operations completed",
		func() uint64 { return m.Disk.Reads }, labels...)
	r.Sample("machine_disk_writes_total", "disk write operations completed",
		func() uint64 { return m.Disk.Writes }, labels...)
	r.Sample("machine_disk_seeks_total", "disk seeks performed",
		func() uint64 { return m.Disk.SeeksPerformed }, labels...)
	r.Sample("machine_disk_bytes_total", "bytes transferred by disk DMA",
		func() uint64 { return m.Disk.BytesTransfered }, labels...)
	r.Sample("machine_trace_doorbells_total",
		"trace-control doorbell rings (generation→analysis transitions)",
		func() uint64 { return m.TraceCtl.Doorbells }, labels...)
	r.SampleGauge("machine_ram_resident_bytes",
		"guest RAM the run has touched, in bytes of allocated 4 KB frames",
		func() float64 { return float64(m.RAM.ResidentBytes()) }, labels...)
}
