// Package kernel implements the traced operating systems: a monolithic
// "Ultrix-like" kernel and a microkernel "Mach-like" system with a
// user-level UX file server, both compiled from Mahler IR plus
// hand-written assembly for the delicate paths (exception vectors, the
// UTLB refill handler, trace-state maintenance, context restore) —
// the code the paper describes as instrumented by hand or left
// uninstrumented (§3.3).
//
// The kernels run on the simulated machine; user workloads run on the
// kernels; epoxie instruments kernels and workloads alike. Everything
// the paper's tracing systems do in the kernel happens here: the
// per-process trace buffers flushed into the large in-kernel buffer on
// every kernel entry, mode switching between trace generation and
// analysis, scheduler integration, nested-interrupt trace-state
// maintenance, explicit TLB drop-ins, and the idle loop with its
// counted basic block.
package kernel

import "systrace/internal/cpu"

// Flavor selects the operating system personality.
type Flavor int

const (
	// Ultrix is the monolithic kernel: file syscalls served in-kernel
	// through a kernel buffer cache with conservative (write-through)
	// write policy and sequential page placement.
	Ultrix Flavor = iota
	// Mach is the microkernel: file syscalls of ordinary processes
	// are converted to IPC to the user-level UX server, which runs
	// its own buffer cache in user memory and reaches the disk
	// through device syscalls. Page placement is random
	// (tlb_map_random-style) and per-process trace pages are
	// allocated on first touch rather than exec-time flags (§3.6).
	Mach
)

func (f Flavor) String() string {
	if f == Mach {
		return "mach"
	}
	return "ultrix"
}

// Physical / virtual layout.
const (
	KernelTextVA = 0x80000000 // vectors first, then kernel text (< 1.5 MB)
	KernelDataVA = 0x80200000 // data + BSS (< 6 MB)
	KStackTop    = 0x801f0000 // kernel stack (grows down, below data)
	BootInfoVA   = 0x80800000 // boot table written by the host loader
	TraceBufVA   = 0x80810000 // in-kernel trace buffer (physical 0x810000)

	// kseg2 linear page tables: 2 MB of PTE space per address space.
	PTBase      = cpu.KSeg2Base
	PTSpanShift = 21
)

// Boot info block offsets (words).
const (
	BootMagic        = 0x534b4f54 // "SKOT"
	BiMagic          = 0
	BiRAMBytes       = 4
	BiTraceBufPhys   = 8 // 0 = untraced system
	BiTraceBufBytes  = 12
	BiClockInterval  = 16
	BiFramePool      = 20
	BiNProcs         = 24
	BiFlavor         = 28
	BiPagePolicy     = 32 // 0 sequential, 1 random
	BiMapSeed        = 36
	BiTLBDropin      = 40 // kernel pre-drops TLB entries at exec/switch
	BiProcBase       = 64
	BiProcStride     = 64
	BiProcEntry      = 0
	BiProcTextVA     = 4
	BiProcTextPhys   = 8
	BiProcTextBytes  = 12
	BiProcDataVA     = 16
	BiProcDataPhys   = 20
	BiProcDataBytes  = 24
	BiProcBSSVA      = 28
	BiProcBSSBytes   = 32
	BiProcTraced     = 36
	BiProcIsServer   = 40
	BiProcStackPages = 44
)

// Trapframe layout within a process save area (byte offsets). EntryHi
// is part of the saved context: nested exceptions must restore the
// interrupted address space exactly (crossCopy switches spaces
// mid-flight).
const (
	TFRegs    = 0 // r1..r31 at (r-1)*4
	TFHi      = 124
	TFLo      = 128
	TFEPC     = 132
	TFStatus  = 136
	TFCause   = 140
	TFBadVA   = 144
	TFEntryHi = 148
	TFSize    = 160
)

// Process table geometry. The proc table lives in kernel BSS.
const (
	MaxProcs   = 14
	ProcStride = 512

	// Proc struct offsets.
	PState     = 0 // 0 free, 1 runnable, 2 sleeping, 3 zombie, 4 awaiting reply, 5 awaiting request
	PPid       = 4
	PSleepChan = 8
	PQuantum   = 12
	PSave      = 16 // TFSize bytes
	PBrk       = PSave + TFSize
	PTraced    = PBrk + 4
	PIsServer  = PTraced + 4
	PNextVPage = PIsServer + 4 // next free user vpage for trace/heap growth
	PMsgOp     = PNextVPage + 4
	PMsgA1     = PMsgOp + 4
	PMsgA2     = PMsgA1 + 4
	PMsgA3     = PMsgA2 + 4
	PMsgPath   = PMsgA3 + 4 // 24 bytes of copied-in path
	PFDBase    = PMsgPath + 24
	NFD        = 8
	FDStride   = 12                     // fileIndex, offset, inUse
	PLastBlock = PFDBase + NFD*FDStride // read-ahead sequentiality tracking
	PDiskPend  = PLastBlock + 4         // 0 idle, 1 issued, 2 complete
)

// Scheduler / timing.
const (
	Quantum = 3 // clock ticks per slice
)

// Syscall numbers.
const (
	SysExit = iota
	SysWrite
	SysRead
	SysOpen
	SysClose
	SysBrk
	SysGetPID
	SysYield
	SysMsgRecv
	SysMsgReply
	SysDiskRead
	SysDiskWrite
	SysTraceCtl
	SysTime
	SysMsgFetch // server pulls data from a client space (vm_read)
	NSyscalls
)

// trace_ctl operations (the kernel call "for user-level analysis
// programs to control tracing", §3.1).
const (
	TraceCtlFlush = 0
	TraceCtlOn    = 1
	TraceCtlOff   = 2
)

// File system: a flat directory on the ramdisk.
//
//	sector 0:  magic, nfiles
//	sector 1+: 32-byte entries: name[20], startSector, length, pad
//	data:      sector-aligned file contents
const (
	FSMagic      = 0x46533031 // "FS01"
	DirEntrySize = 32
	DirNameLen   = 20
	SectorSize   = 512
	BlockSectors = 8
	BlockBytes   = SectorSize * BlockSectors
)

// Buffer cache geometry (Ultrix kernel; the Mach UX server has its own
// user-space cache of the same shape).
const (
	NBuf = 16
)

// User process layout.
const (
	UserStackPages = 4
	UserStackTop   = 0x7ffff000
)
