package vm

import (
	"fmt"
	"math"
)

// Register-file sizes. Compile-time arrays keep the interpreter's inner
// loop allocation-free.
const (
	NumFloatRegs = 64
	NumIntRegs   = 32
)

// Device distinguishes the two compute-element classes the paper injects
// into.
type Device uint8

// Device classes.
const (
	CPU Device = iota
	GPU
)

// String returns "CPU" or "GPU".
func (d Device) String() string {
	if d == GPU {
		return "GPU"
	}
	return "CPU"
}

// TrapKind classifies abnormal termination of a program run. Traps model
// the detectable uncorrectable errors (DUEs) of the paper: crashes
// (segfault/illegal instruction analogues) and hangs.
type TrapKind uint8

// Trap kinds.
const (
	TrapNone       TrapKind = iota
	TrapOOB                 // memory access outside data memory (segfault)
	TrapInvalidPC           // control transfer outside the program (crash)
	TrapStepBudget          // exceeded the per-run step budget (hang)
	TrapBadInstr            // undefined opcode (illegal instruction)
)

func (k TrapKind) String() string {
	switch k {
	case TrapOOB:
		return "segfault"
	case TrapInvalidPC:
		return "invalid-pc"
	case TrapStepBudget:
		return "hang"
	case TrapBadInstr:
		return "illegal-instruction"
	default:
		return "none"
	}
}

// Trap is returned by Machine.Run on abnormal termination.
type Trap struct {
	Kind    TrapKind
	Device  Device
	Program string
	PC      int
}

// Error implements the error interface.
func (t *Trap) Error() string {
	return fmt.Sprintf("vm: %s trap on %s in %q at pc=%d", t.Kind, t.Device, t.Program, t.PC)
}

// WriteEvent describes one writeback, passed to the fault hook before the
// value is committed. DynIndex is the device's cumulative dynamic
// instruction index (across all Run calls of this machine), which is how
// transient-fault plans address their single target instruction.
type WriteEvent struct {
	Device   Device
	Op       Opcode
	DynIndex uint64
	Kind     DestKind
	Index    int // register number or memory address
}

// FaultHook inspects a writeback and returns an XOR mask to apply to the
// raw bits of the written value (0 = no corruption). The hook is the
// NVBitFI/PinFI analogue for faults addressed by dynamic instruction
// index (transients) and for profiling; permanent faults arm the
// machine directly instead (ArmPermanent). See internal/fi.
type FaultHook func(ev WriteEvent) uint64

// noFault is the permanent-fault opcode of a device with nothing armed:
// no defined opcode reaches the scalar loop's post-commit fault check
// with it.
const noFault = Opcode(0xff)

// deviceState is the per-device register file and instruction counter.
type deviceState struct {
	f     [NumFloatRegs]float64
	r     [NumIntRegs]int64
	count uint64 // cumulative dynamic instruction count
}

// Machine is one agent's compute fabric: a CPU-class and a GPU-class
// device sharing one data memory (the agent's address space). A Machine
// is private to an agent — DiverseAV's agent-independence assumption is
// that a fault confined to one machine cannot touch the other agent.
type Machine struct {
	mem  []float64
	dev  [2]deviceState
	hook FaultHook
	// The masked-direct permanent fault (ArmPermanent): every dynamic
	// instance of permOp on device permDev gets permMask XOR-ed into its
	// destination. permArmed is false when nothing is armed; permHits
	// counts the corrupted writebacks.
	permArmed bool
	permDev   Device
	permOp    Opcode
	permMask  uint64
	permHits  uint64
	// tier0Only pins execution to the scalar loop even when a program
	// has a tier-1 fusion plan; see SetMaxTier.
	tier0Only bool
	// Execution-tier accounting, flushed at every Run/runDirect exit.
	// These are observational totals for the machine's lifetime: unlike
	// dev[_].count they are not part of the architectural state, so
	// MachineState.Restore leaves them alone and forked runs keep
	// accumulating.
	// Indexed by Device.
	fusedInstr   [2]uint64 // executed inside tier-1 fused kernels
	scalarInstr  [2]uint64 // executed by the hook-free scalar loop
	hookedInstr  [2]uint64 // executed by the hooked (transient-fault, profiling) loop
	batchedInstr [2]uint64 // executed in lockstep by RunLanes (see batch.go)
}

// NewMachine allocates a machine with the given data-memory size in
// 64-bit words.
func NewMachine(memWords int) *Machine {
	return &Machine{mem: make([]float64, memWords)}
}

// SetFaultHook installs (or clears, with nil) the fault-injection hook.
// A hook and an armed permanent fault are mutually exclusive: the hooked
// loop does not apply the permanent fault, so installing a hook on an
// armed machine panics rather than silently dropping it.
func (m *Machine) SetFaultHook(h FaultHook) {
	if h != nil && m.permArmed {
		panic("vm: SetFaultHook on a machine with an armed permanent fault")
	}
	m.hook = h
}

// ArmPermanent arms a masked-direct permanent fault: from now on every
// dynamic instance of op executed on device d has mask XOR-ed into its
// destination — float register, int register, or ST's memory word — as
// it commits, and counts one activation. This is the paper's permanent
// fault model (§II-B) without a per-writeback callback: the target
// device keeps its tier-1 kernels except those whose claimed code
// contains op, which run on the scalar loop where the mask is applied.
// An opcode without a destination (control flow) arms nothing, as no
// injector can corrupt it. Like the hook, the armed fault is run
// configuration, not architectural state: Snapshot and Restore leave it
// and its activation count alone. Panics if a fault hook is installed.
func (m *Machine) ArmPermanent(d Device, op Opcode, mask uint64) {
	if m.hook != nil {
		panic("vm: ArmPermanent on a machine with a fault hook")
	}
	m.permArmed = op.Dest() != DestNone
	m.permDev, m.permOp, m.permMask = d, op, mask
}

// Disarm removes the permanent fault. The activation count is kept.
func (m *Machine) Disarm() { m.permArmed = false }

// Activations returns how many writebacks the permanent fault has
// corrupted on this machine.
func (m *Machine) Activations() uint64 { return m.permHits }

// SetActivations overwrites the permanent fault's activation count; a
// run forked from a checkpoint continues from the prefix total.
func (m *Machine) SetActivations(n uint64) { m.permHits = n }

// faultOn returns the permanent-fault opcode runDirect checks on device
// d, or noFault when d has nothing armed.
func (m *Machine) faultOn(d Device) Opcode {
	if m.permArmed && m.permDev == d {
		return m.permOp
	}
	return noFault
}

// SetMaxTier caps the execution tier: 0 pins the machine to the scalar
// per-instruction loop, ≥ 1 (the default) also allows fused
// superinstruction kernels on hook-free runs. Both tiers are
// bit-identical by construction (see fuse.go); the cap exists for
// differential tests and for ruling tier 1 out when debugging.
func (m *Machine) SetMaxTier(t int) { m.tier0Only = t < 1 }

// MaxTier returns the current execution-tier cap.
func (m *Machine) MaxTier() int {
	if m.tier0Only {
		return 0
	}
	return 1
}

// MemSize returns the data-memory size in words.
func (m *Machine) MemSize() int { return len(m.mem) }

// Mem returns the backing memory. The simulator host uses it to marshal
// sensor data in and actuation data out; it is shared, not copied.
func (m *Machine) Mem() []float64 { return m.mem }

// InstrCount returns the cumulative dynamic instruction count executed on
// the device so far.
func (m *Machine) InstrCount(d Device) uint64 { return m.dev[d].count }

// ResetCounts zeroes the dynamic instruction counters (used between
// profiling and measured runs).
func (m *Machine) ResetCounts() {
	m.dev[CPU].count = 0
	m.dev[GPU].count = 0
}

// TierCounts returns how many dynamic instructions this machine has
// executed on device d on each path: inside tier-1 fused kernels, in the
// hook-free tier-0 scalar loop, in the hooked loop (transient faults,
// profiling), and in the multi-lane lockstep batch loop (RunLanes). The
// sum equals every instruction the device ever ran (checkpoint restores
// do not reset these), which is what the flight-recorder summary reports
// as the tier-1 kernel hit rate.
func (m *Machine) TierCounts(d Device) (fused, scalar, hooked, batched uint64) {
	return m.fusedInstr[d], m.scalarInstr[d], m.hookedInstr[d], m.batchedInstr[d]
}

// Float returns float register i of the device (for tests).
func (m *Machine) Float(d Device, i int) float64 { return m.dev[d].f[i] }

// Int returns int register i of the device (for tests).
func (m *Machine) Int(d Device, i int) int64 { return m.dev[d].r[i] }

// Run executes the program on the given device until HALT, a trap, or the
// step budget is exhausted. Register state and memory persist across
// calls; the program counter starts at the program entry every call.
//
// With no fault hook installed — golden, training, benchmark and
// permanent-fault runs, the vast majority of all executed instructions —
// Run dispatches to runDirect, whose writebacks commit straight to the
// register file (XOR-ing an armed permanent fault's mask in after the
// target opcode's commit) and which dispatches to tier-1 kernels. A
// hook (transient faults, profiling) selects runHooked, which offers
// every writeback to the hook first. Both loops execute identical
// semantics.
func (m *Machine) Run(d Device, p *Program, stepBudget uint64) error {
	if m.hook == nil {
		return m.runDirect(d, p, p.entry, 0, stepBudget)
	}
	return m.runHooked(d, p, p.entry, 0, stepBudget)
}

// resumeLane continues execution of p at an arbitrary pc with `start`
// steps of this invocation's budget already spent — the scalar landing
// path for a lane that detached from a RunLanes lockstep pack. The
// hook-free variant still gets tier-1 kernels wherever the pc lands on
// a kernel entry.
func (m *Machine) resumeLane(d Device, p *Program, pc int, start, stepBudget uint64) error {
	if m.hook == nil {
		return m.runDirect(d, p, pc, start, stepBudget)
	}
	return m.runHooked(d, p, pc, start, stepBudget)
}

// runHooked is the per-writeback hook loop of transient faults and
// profiling passes: every commit is offered to the hook before landing. pc is the starting program
// counter (p.entry for Run, a resume point for detached batch lanes)
// and start is how many of this invocation's budgeted steps were
// already executed elsewhere (always 0 for Run).
func (m *Machine) runHooked(d Device, p *Program, pc int, start, stepBudget uint64) error {
	ds := &m.dev[d]
	code := p.Code
	steps := start
	for {
		if pc < 0 || pc >= len(code) {
			m.hookedInstr[d] += steps - start
			return &Trap{Kind: TrapInvalidPC, Device: d, Program: p.Name, PC: pc}
		}
		if steps >= stepBudget {
			m.hookedInstr[d] += steps - start
			return &Trap{Kind: TrapStepBudget, Device: d, Program: p.Name, PC: pc}
		}
		steps++
		ds.count++
		in := &code[pc]
		pc++
		switch in.Op {
		case FADD:
			m.writeF(ds, d, in, ds.f[in.A]+ds.f[in.B])
		case FSUB:
			m.writeF(ds, d, in, ds.f[in.A]-ds.f[in.B])
		case FMUL:
			m.writeF(ds, d, in, ds.f[in.A]*ds.f[in.B])
		case FDIV:
			m.writeF(ds, d, in, ds.f[in.A]/ds.f[in.B])
		case FMA:
			m.writeF(ds, d, in, ds.f[in.A]*ds.f[in.B]+ds.f[in.C])
		case FMIN:
			m.writeF(ds, d, in, math.Min(ds.f[in.A], ds.f[in.B]))
		case FMAX:
			m.writeF(ds, d, in, math.Max(ds.f[in.A], ds.f[in.B]))
		case FABS:
			m.writeF(ds, d, in, math.Abs(ds.f[in.A]))
		case FNEG:
			m.writeF(ds, d, in, -ds.f[in.A])
		case FSQRT:
			m.writeF(ds, d, in, math.Sqrt(ds.f[in.A]))
		case FEXP:
			m.writeF(ds, d, in, math.Exp(ds.f[in.A]))
		case FTANH:
			m.writeF(ds, d, in, math.Tanh(ds.f[in.A]))
		case FMOV:
			m.writeF(ds, d, in, ds.f[in.A])
		case FMOVI:
			m.writeF(ds, d, in, in.Imm)
		case FSEL:
			if ds.r[in.C] != 0 {
				m.writeF(ds, d, in, ds.f[in.A])
			} else {
				m.writeF(ds, d, in, ds.f[in.B])
			}
		case ITOF:
			m.writeF(ds, d, in, float64(ds.r[in.A]))
		case IADD:
			m.writeI(ds, d, in, ds.r[in.A]+ds.r[in.B])
		case ISUB:
			m.writeI(ds, d, in, ds.r[in.A]-ds.r[in.B])
		case IMUL:
			m.writeI(ds, d, in, ds.r[in.A]*ds.r[in.B])
		case IAND:
			m.writeI(ds, d, in, ds.r[in.A]&ds.r[in.B])
		case IOR:
			m.writeI(ds, d, in, ds.r[in.A]|ds.r[in.B])
		case IXOR:
			m.writeI(ds, d, in, ds.r[in.A]^ds.r[in.B])
		case ISHL:
			m.writeI(ds, d, in, ds.r[in.A]<<(uint64(ds.r[in.B])&63))
		case ISHR:
			m.writeI(ds, d, in, ds.r[in.A]>>(uint64(ds.r[in.B])&63))
		case IMOV:
			m.writeI(ds, d, in, ds.r[in.A])
		case IMOVI:
			m.writeI(ds, d, in, in.IImm)
		case IADDI:
			m.writeI(ds, d, in, ds.r[in.A]+in.IImm)
		case FTOI:
			m.writeI(ds, d, in, saturateToInt(ds.f[in.A]))
		case ICMPLT:
			m.writeI(ds, d, in, boolToInt(ds.r[in.A] < ds.r[in.B]))
		case ICMPEQ:
			m.writeI(ds, d, in, boolToInt(ds.r[in.A] == ds.r[in.B]))
		case FCMPLT:
			m.writeI(ds, d, in, boolToInt(ds.f[in.A] < ds.f[in.B]))
		case FCMPLE:
			m.writeI(ds, d, in, boolToInt(ds.f[in.A] <= ds.f[in.B]))
		case LD:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(m.mem)) {
				m.hookedInstr[d] += steps - start
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			m.writeF(ds, d, in, m.mem[addr])
		case ST:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(m.mem)) {
				m.hookedInstr[d] += steps - start
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			v := ds.f[in.B]
			if m.hook != nil {
				if mask := m.hook(WriteEvent{Device: d, Op: ST, DynIndex: ds.count, Kind: DestMem, Index: int(addr)}); mask != 0 {
					v = math.Float64frombits(math.Float64bits(v) ^ mask)
				}
			}
			m.mem[addr] = v
		case JMP:
			pc = int(in.IImm)
		case BEQZ:
			if ds.r[in.A] == 0 {
				pc = int(in.IImm)
			}
		case BNEZ:
			if ds.r[in.A] != 0 {
				pc = int(in.IImm)
			}
		case HALT:
			m.hookedInstr[d] += steps - start
			return nil
		default:
			m.hookedInstr[d] += steps - start
			return &Trap{Kind: TrapBadInstr, Device: d, Program: p.Name, PC: pc - 1}
		}
	}
}

// runDirect is Run for machines with no fault hook: the same fetch /
// decode / trap semantics, with writebacks committed straight into the
// register file. Keep the two loops in lockstep when changing the ISA
// (TestFuzzDirectVsHooked enforces this differentially).
//
// When the program carries a tier-1 fusion plan and the machine allows
// it, pcs that are kernel entries dispatch to the fused kernel, which
// executes whole loop iterations at once and advances steps by the
// exact count the scalar loop would have; a kernel that cannot make
// progress (trap ahead, budget too tight) returns 0 and the scalar
// switch handles that pass. See fuse.go for the bit-exactness rules.
//
// An armed permanent fault on d is applied after the switch: a
// committed instance of the faulted opcode gets the mask XOR-ed into
// its destination, which equals the hooked loop's XOR-before-commit.
// Kernels whose static opcode set contains the faulted opcode are
// skipped, so every instance executes here and the activation count
// stays exact (TestFuzzPermanentDirectVsHooked).
func (m *Machine) runDirect(d Device, p *Program, pc int, start, stepBudget uint64) error {
	ds := &m.dev[d]
	code := p.Code
	mem := m.mem
	var kmap []int32
	var kernels []fusedKernel
	if p.plan != nil && !m.tier0Only {
		kmap = p.plan.pcMap
		kernels = p.plan.kernels
	}
	fop := m.faultOn(d)
	var skip uint64 // opcode-set bit of the faulted opcode; 0 = fuse everything
	if fop != noFault {
		skip = 1 << fop
	}
	steps := start
	var fused uint64
	for {
		if pc < 0 || pc >= len(code) {
			ds.count += steps - start
			m.fusedInstr[d] += fused
			m.scalarInstr[d] += steps - start - fused
			return &Trap{Kind: TrapInvalidPC, Device: d, Program: p.Name, PC: pc}
		}
		if steps >= stepBudget {
			ds.count += steps - start
			m.fusedInstr[d] += fused
			m.scalarInstr[d] += steps - start - fused
			return &Trap{Kind: TrapStepBudget, Device: d, Program: p.Name, PC: pc}
		}
		if kmap != nil {
			if ki := kmap[pc]; ki >= 0 && kernels[ki].ops&skip == 0 {
				if n, npc := kernels[ki].fn(m, ds, stepBudget-steps); n > 0 {
					steps += n
					fused += n
					pc = npc
					continue
				}
			}
		}
		steps++
		in := &code[pc]
		pc++
		switch in.Op {
		case FADD:
			ds.f[in.Dst] = ds.f[in.A] + ds.f[in.B]
		case FSUB:
			ds.f[in.Dst] = ds.f[in.A] - ds.f[in.B]
		case FMUL:
			ds.f[in.Dst] = ds.f[in.A] * ds.f[in.B]
		case FDIV:
			ds.f[in.Dst] = ds.f[in.A] / ds.f[in.B]
		case FMA:
			ds.f[in.Dst] = ds.f[in.A]*ds.f[in.B] + ds.f[in.C]
		case FMIN:
			ds.f[in.Dst] = math.Min(ds.f[in.A], ds.f[in.B])
		case FMAX:
			ds.f[in.Dst] = math.Max(ds.f[in.A], ds.f[in.B])
		case FABS:
			ds.f[in.Dst] = math.Abs(ds.f[in.A])
		case FNEG:
			ds.f[in.Dst] = -ds.f[in.A]
		case FSQRT:
			ds.f[in.Dst] = math.Sqrt(ds.f[in.A])
		case FEXP:
			ds.f[in.Dst] = math.Exp(ds.f[in.A])
		case FTANH:
			ds.f[in.Dst] = math.Tanh(ds.f[in.A])
		case FMOV:
			ds.f[in.Dst] = ds.f[in.A]
		case FMOVI:
			ds.f[in.Dst] = in.Imm
		case FSEL:
			if ds.r[in.C] != 0 {
				ds.f[in.Dst] = ds.f[in.A]
			} else {
				ds.f[in.Dst] = ds.f[in.B]
			}
		case ITOF:
			ds.f[in.Dst] = float64(ds.r[in.A])
		case IADD:
			ds.r[in.Dst] = ds.r[in.A] + ds.r[in.B]
		case ISUB:
			ds.r[in.Dst] = ds.r[in.A] - ds.r[in.B]
		case IMUL:
			ds.r[in.Dst] = ds.r[in.A] * ds.r[in.B]
		case IAND:
			ds.r[in.Dst] = ds.r[in.A] & ds.r[in.B]
		case IOR:
			ds.r[in.Dst] = ds.r[in.A] | ds.r[in.B]
		case IXOR:
			ds.r[in.Dst] = ds.r[in.A] ^ ds.r[in.B]
		case ISHL:
			ds.r[in.Dst] = ds.r[in.A] << (uint64(ds.r[in.B]) & 63)
		case ISHR:
			ds.r[in.Dst] = ds.r[in.A] >> (uint64(ds.r[in.B]) & 63)
		case IMOV:
			ds.r[in.Dst] = ds.r[in.A]
		case IMOVI:
			ds.r[in.Dst] = in.IImm
		case IADDI:
			ds.r[in.Dst] = ds.r[in.A] + in.IImm
		case FTOI:
			ds.r[in.Dst] = saturateToInt(ds.f[in.A])
		case ICMPLT:
			ds.r[in.Dst] = boolToInt(ds.r[in.A] < ds.r[in.B])
		case ICMPEQ:
			ds.r[in.Dst] = boolToInt(ds.r[in.A] == ds.r[in.B])
		case FCMPLT:
			ds.r[in.Dst] = boolToInt(ds.f[in.A] < ds.f[in.B])
		case FCMPLE:
			ds.r[in.Dst] = boolToInt(ds.f[in.A] <= ds.f[in.B])
		case LD:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(mem)) {
				ds.count += steps - start
				m.fusedInstr[d] += fused
				m.scalarInstr[d] += steps - start - fused
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			ds.f[in.Dst] = mem[addr]
		case ST:
			addr := ds.r[in.A] + in.IImm
			if addr < 0 || addr >= int64(len(mem)) {
				ds.count += steps - start
				m.fusedInstr[d] += fused
				m.scalarInstr[d] += steps - start - fused
				return &Trap{Kind: TrapOOB, Device: d, Program: p.Name, PC: pc - 1}
			}
			mem[addr] = ds.f[in.B]
		case JMP:
			pc = int(in.IImm)
		case BEQZ:
			if ds.r[in.A] == 0 {
				pc = int(in.IImm)
			}
		case BNEZ:
			if ds.r[in.A] != 0 {
				pc = int(in.IImm)
			}
		case HALT:
			ds.count += steps - start
			m.fusedInstr[d] += fused
			m.scalarInstr[d] += steps - start - fused
			return nil
		default:
			ds.count += steps - start
			m.fusedInstr[d] += fused
			m.scalarInstr[d] += steps - start - fused
			return &Trap{Kind: TrapBadInstr, Device: d, Program: p.Name, PC: pc - 1}
		}
		if in.Op == fop {
			m.permHits++
			switch fop.Dest() {
			case DestFloat:
				ds.f[in.Dst] = math.Float64frombits(math.Float64bits(ds.f[in.Dst]) ^ m.permMask)
			case DestInt:
				ds.r[in.Dst] ^= int64(m.permMask)
			case DestMem:
				// ST leaves r[A] alone, so the address is the one just
				// bounds-checked and written.
				addr := ds.r[in.A] + in.IImm
				mem[addr] = math.Float64frombits(math.Float64bits(mem[addr]) ^ m.permMask)
			}
		}
	}
}

// writeF commits a float-register writeback, applying the fault hook.
func (m *Machine) writeF(ds *deviceState, d Device, in *Instr, v float64) {
	if m.hook != nil {
		if mask := m.hook(WriteEvent{Device: d, Op: in.Op, DynIndex: ds.count, Kind: DestFloat, Index: int(in.Dst)}); mask != 0 {
			v = math.Float64frombits(math.Float64bits(v) ^ mask)
		}
	}
	ds.f[in.Dst] = v
}

// writeI commits an int-register writeback, applying the fault hook.
func (m *Machine) writeI(ds *deviceState, d Device, in *Instr, v int64) {
	if m.hook != nil {
		if mask := m.hook(WriteEvent{Device: d, Op: in.Op, DynIndex: ds.count, Kind: DestInt, Index: int(in.Dst)}); mask != 0 {
			v ^= int64(mask)
		}
	}
	ds.r[in.Dst] = v
}

func boolToInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// saturateToInt converts a float to int64, saturating on NaN/overflow the
// way real hardware conversion instructions do rather than invoking
// undefined behavior.
func saturateToInt(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= math.MaxInt64:
		return math.MaxInt64
	case f <= math.MinInt64:
		return math.MinInt64
	default:
		return int64(f)
	}
}
