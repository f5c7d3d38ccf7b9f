// Package emu is the deterministic machine emulator for the three
// synthetic ISAs. It loads bin.Binary images (applying PIE load bases and
// runtime relocations), interprets instructions under a cycle cost model
// with an instruction cache, and implements the language runtime
// behaviours the paper's techniques interact with: trap-signal delivery
// to a handler, C++-style exception unwinding driven by the original
// .eh_frame, and Go-style stack traceback driven by the pclntab. The
// emulated cycle count stands in for wall-clock time in every experiment.
package emu

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/unwind"
)

// Syscall numbers.
const (
	// SysPrint appends the decimal value of r1 and a newline to the
	// program output.
	SysPrint = 1
	// SysPrintChar appends the low byte of r1 to the program output.
	SysPrintChar = 2
	// SysTraceback performs a Go-runtime-style stack walk (garbage
	// collection / stack growth model): every return address on the
	// stack is resolved through the pclntab; failure to resolve aborts
	// the program like the Go runtime would. The fold of all pcvalue
	// results lands in r0 and the output, so rewritten binaries must
	// translate return addresses to match the original run.
	SysTraceback = 7
)

// Runtime is the interface through which the emulator consults the
// paper's injected runtime library (LD_PRELOAD model). A nil Runtime
// means no library is loaded: traps fault and no translation happens.
type Runtime interface {
	// TrapTarget resolves a trap trampoline address to its transfer
	// target (the signal handler's job).
	TrapTarget(pc uint64) (uint64, bool)
	// TranslateRA maps a relocated return address to its original call
	// site, passing unknown addresses through unchanged.
	TranslateRA(pc uint64) uint64
	// WrapsUnwind reports whether the library wraps the unwinder's step
	// function (C++ exception support, Section 6.1).
	WrapsUnwind() bool
	// PatchesGoRuntime reports whether the library patches
	// runtime.findfunc/runtime.pcvalue inputs (Go support, Section 6.2).
	PatchesGoRuntime() bool
}

// Options configure loading and execution.
type Options struct {
	// LoadBase shifts a PIE image; ignored for position dependent
	// binaries. Zero selects the default PIE base.
	LoadBase uint64
	// MaxInstrs bounds execution (hang detection). Zero means the
	// default of 50 million.
	MaxInstrs uint64
	// Costs overrides the cost model; nil selects DefaultCosts.
	Costs *Costs
	// Runtime is the injected runtime library, if any.
	Runtime Runtime
	// DisableICache turns off instruction cache modelling.
	DisableICache bool
	// FastUnwind swaps the DWARF-interpreting unwinder for the
	// frdwarf-style compiled unwinder (Section 2.3 of the paper): the
	// same original-address-keyed information, an order of magnitude
	// cheaper per frame. RA translation works with both.
	FastUnwind bool
	// TraceDepth keeps a ring buffer of the last N executed PCs,
	// included in fault messages and exposed via Trace() — a debugging
	// aid for diagnosing escaped control flow in rewritten binaries.
	TraceDepth int
	// ProfileAddrs lists addresses (link-time coordinates) whose
	// execution counts are recorded — the ground-truth block profile
	// that instrumentation-integrity checks compare counters against.
	ProfileAddrs []uint64
	// CaptureHeat records every control-transfer landing PC (link-time
	// coordinates) in Result.Heat: any executed instruction that is not
	// the sequential successor of the previous one — block entries,
	// branch/call targets, return landings. Aggregated through
	// profile.Build, this is the block-heat capture profile-guided
	// rewriting feeds back into the planner.
	CaptureHeat bool
	// Arg is placed in r1 at startup (the argv model: workloads select
	// their command or benchmark input through it).
	Arg uint64
	// EnforceCET makes every indirect call and indirect jump fault
	// (FaultCET) unless it lands on a landing-pad marker instruction
	// (arch.Mark) — the hardware-CFI semantics of CET's endbr. Returns
	// are not tracked (the shadow stack is out of scope). Running a
	// rewritten CFI binary under enforcement is a dynamic soundness
	// oracle: any indirect target the rewriter failed to preserve a
	// marker at faults immediately.
	EnforceCET bool
}

// DefaultPIEBase is where PIE images load unless overridden.
const DefaultPIEBase = 0x55_5000_0000

const stackTop = 0x7FFE_0000_0000
const stackSize = 1 << 20

// dcacheSize is the number of entries in a machine's decoded-instruction
// cache, which is direct-mapped on the PC (a power of two).
const dcacheSize = 1 << 12

// Result summarises a completed run.
type Result struct {
	Exit    uint64
	Output  []byte
	Cycles  uint64
	Instrs  uint64
	Traps   uint64
	Unwinds uint64 // frames stepped during exception dispatch
	Walks   uint64 // Go traceback walks performed
	ICMiss  uint64
	ICRef   uint64
	// Profile holds per-address execution counts for Options.ProfileAddrs.
	Profile map[uint64]uint64
	// Heat holds control-transfer landing counts when Options.CaptureHeat
	// was set (link-time coordinates).
	Heat map[uint64]uint64
}

// Machine is one loaded program instance.
type Machine struct {
	arch     arch.Arch
	enc      arch.Encoding
	mem      *Memory
	regs     [arch.NumRegs]uint64
	pc       uint64
	costs    Costs
	icache   *ICache
	rt       Runtime
	unwinds  *unwind.Table
	compiled *unwind.Compiled
	pctab    *unwind.PCTable
	loadBase uint64
	output   []byte
	cycles   uint64
	instrs   uint64
	traps    uint64
	unwindN  uint64
	walks    uint64
	max      uint64
	cet      bool
	halted   bool
	profile  map[uint64]uint64
	heat     map[uint64]uint64
	seqNext  uint64   // expected PC if the previous instruction fell through
	trace    []uint64 // ring buffer of executed PCs
	traceIdx int

	// dcache holds decoded instructions, indexed by PC >> dshift (the
	// minimum instruction length's log2). fetchBuf receives the bytes
	// a miss decodes from.
	dcache   [dcacheSize]decoded
	dshift   uint
	fetchBuf []byte
}

// decoded is one decoded-instruction cache entry. Only instructions
// that decoded to something other than Illegal are cached, and only
// from executable ranges, which are fixed once Load returns; an entry
// is valid while its gen matches the memory's generation, which moves
// on every write into executable bytes.
type decoded struct {
	pc       uint64
	gen      uint64
	cost     uint64 // Costs.instrCost(ins)
	profiled bool   // pc is one of Options.ProfileAddrs
	ins      arch.Instr
}

// Load maps the binary into a fresh machine.
func Load(b *bin.Binary, opts Options) (*Machine, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("emu: refusing to load invalid binary: %w", err)
	}
	m := &Machine{
		arch:  b.Arch,
		enc:   arch.ForArch(b.Arch),
		mem:   NewMemory(),
		costs: DefaultCosts(),
		max:   50_000_000,
	}
	m.dshift = uint(bits.TrailingZeros(uint(m.enc.MinLen())))
	m.fetchBuf = make([]byte, m.enc.MaxLen())
	if opts.Costs != nil {
		m.costs = *opts.Costs
	}
	if opts.MaxInstrs != 0 {
		m.max = opts.MaxInstrs
	}
	if !opts.DisableICache {
		m.icache = &ICache{}
	}
	m.rt = opts.Runtime
	m.cet = opts.EnforceCET
	if len(opts.ProfileAddrs) > 0 {
		m.profile = map[uint64]uint64{}
		for _, a := range opts.ProfileAddrs {
			m.profile[a] = 0
		}
	}
	if opts.CaptureHeat {
		m.heat = map[uint64]uint64{}
	}
	if opts.TraceDepth > 0 {
		m.trace = make([]uint64, opts.TraceDepth)
	}

	if s := b.Section(bin.SecInterp); s != nil && !b.SharedLib {
		if len(s.Data) < 8 || string(s.Data[:8]) != "/lib64/l" {
			return nil, fmt.Errorf("emu: bad .interp data: %q", s.Data)
		}
	}
	if b.PIE {
		m.loadBase = DefaultPIEBase
		if opts.LoadBase != 0 {
			m.loadBase = opts.LoadBase
		}
	}
	for _, s := range b.Sections {
		if !s.Loaded() {
			continue
		}
		m.mem.Map(s.Addr+m.loadBase, s.Data, s.Flags&bin.FlagExec != 0)
	}
	// Apply runtime relocations the way the dynamic loader does.
	for _, r := range b.Relocs {
		if r.Kind == bin.RelocRelative {
			if err := m.mem.Write(r.Off+m.loadBase, uint64(r.Addend)+m.loadBase, 8); err != nil {
				return nil, err
			}
		}
	}
	// Stack: its pages are zero until first touched.
	m.mem.addRange(stackTop-stackSize, stackTop, false)
	m.regs[arch.SP] = stackTop - 64
	m.regs[arch.R1] = opts.Arg
	if b.Arch == arch.PPC {
		m.regs[arch.TOCReg] = b.TOCValue + m.loadBase
	}
	m.pc = b.Entry + m.loadBase

	// Language runtime tables, always read from the ORIGINAL sections —
	// the rewriter never touches .eh_frame or .gopclntab.
	if s := b.Section(bin.SecEhFrame); s != nil {
		tab, err := unwind.Decode(s.Data)
		if err != nil {
			return nil, fmt.Errorf("emu: parsing %s: %w", bin.SecEhFrame, err)
		}
		m.unwinds = tab
	} else {
		m.unwinds = unwind.NewTable(nil)
	}
	if opts.FastUnwind {
		m.compiled = unwind.Compile(m.unwinds)
	}
	if s := b.Section(bin.SecGoPCLN); s != nil {
		tab, err := unwind.DecodePCTable(s.Data)
		if err != nil {
			return nil, fmt.Errorf("emu: parsing %s: %w", bin.SecGoPCLN, err)
		}
		m.pctab = tab
	}
	return m, nil
}

// LoadBase returns the base the image was loaded at (zero for position
// dependent binaries).
func (m *Machine) LoadBase() uint64 { return m.loadBase }

// Reg returns a register value (for tests and tools).
func (m *Machine) Reg(r arch.Reg) uint64 { return m.regs[r] }

// translator returns the RA translation in effect for language-runtime
// unwinding, honouring which hooks the runtime library installed. The
// base translation rebases PIE addresses to link-time coordinates, which
// is the load-base adjustment Section 6 describes, then applies the
// .ra_map lookup if present.
func (m *Machine) translator(need func(Runtime) bool) unwind.Translator {
	return func(pc uint64) uint64 {
		if m.rt != nil && need(m.rt) {
			m.cycles += m.costs.RATranslate
			pc = m.rt.TranslateRA(pc - m.loadBase)
			return pc
		}
		return pc - m.loadBase
	}
}

// Run executes until halt, fault, or budget exhaustion.
func (m *Machine) Run() (Result, error) {
	for !m.halted {
		if m.instrs >= m.max {
			return m.result(), &Fault{Kind: FaultBudget, PC: m.pc}
		}
		if err := m.step(); err != nil {
			return m.result(), err
		}
	}
	return m.result(), nil
}

func (m *Machine) result() Result {
	r := Result{
		Exit:    m.regs[arch.R0],
		Output:  m.output,
		Cycles:  m.cycles,
		Instrs:  m.instrs,
		Traps:   m.traps,
		Unwinds: m.unwindN,
		Walks:   m.walks,
	}
	if m.icache != nil {
		r.ICMiss = m.icache.Misses
		r.ICRef = m.icache.Accesses
	}
	r.Profile = m.profile
	r.Heat = m.heat
	return r
}

// MemRead reads emulated memory after a run (counter cells, globals).
// The address is in link-time coordinates; the load base is applied.
func (m *Machine) MemRead(addr uint64, size uint8) (uint64, error) {
	return m.mem.Read(addr+m.loadBase, size)
}

// Trace returns the most recently executed PCs, oldest first (empty
// unless Options.TraceDepth was set).
func (m *Machine) Trace() []uint64 {
	if m.trace == nil {
		return nil
	}
	out := make([]uint64, 0, len(m.trace))
	for i := 0; i < len(m.trace); i++ {
		pc := m.trace[(m.traceIdx+i)%len(m.trace)]
		if pc != 0 {
			out = append(out, pc)
		}
	}
	return out
}

// Sentinel decode failures; step and checkCET turn them into faults.
var (
	errNotExec = errors.New("not executable")
	errIllegal = errors.New("illegal instruction")
)

// decode returns the decoded-cache entry for the instruction at pc,
// fetching and decoding it on a miss. It fails with errNotExec when pc
// is not executable, errIllegal for an Illegal instruction, or the
// decoder's error; failures are never cached. The entry is only valid
// until the next decode.
func (m *Machine) decode(pc uint64) (*decoded, error) {
	e := &m.dcache[(pc>>m.dshift)%dcacheSize]
	if e.pc == pc && e.gen == m.mem.gen {
		return e, nil
	}
	n, ok := m.mem.fetch(pc, m.fetchBuf)
	if !ok {
		return nil, errNotExec
	}
	ins, err := m.enc.Decode(m.fetchBuf[:n], pc)
	if err != nil {
		return nil, err
	}
	if ins.Kind == arch.Illegal {
		return nil, errIllegal
	}
	*e = decoded{pc: pc, gen: m.mem.gen, cost: m.costs.instrCost(ins), ins: ins}
	if m.profile != nil {
		_, e.profiled = m.profile[pc-m.loadBase]
	}
	return e, nil
}

func (m *Machine) step() error {
	e, err := m.decode(m.pc)
	switch err {
	case nil:
	case errNotExec:
		return &Fault{Kind: FaultFetch, PC: m.pc}
	case errIllegal:
		return &Fault{Kind: FaultIllegal, PC: m.pc}
	default:
		return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
	}
	// A copy: checkCET's decode may refill this entry's slot.
	ins := e.ins
	m.instrs++
	if m.trace != nil {
		m.trace[m.traceIdx] = m.pc
		m.traceIdx = (m.traceIdx + 1) % len(m.trace)
	}
	if e.profiled {
		m.profile[m.pc-m.loadBase]++
	}
	if m.heat != nil {
		if m.pc != m.seqNext {
			m.heat[m.pc-m.loadBase]++
		}
		m.seqNext = m.pc + uint64(ins.EncLen)
	}
	m.cycles += e.cost
	if m.icache != nil && !m.icache.Access(m.pc) {
		m.cycles += m.costs.ICacheMiss
	}
	next := m.pc + uint64(ins.EncLen)

	switch ins.Kind {
	case arch.Nop, arch.Mark:
		// Mark executes as a no-op; its significance is where it sits,
		// not what it does (see checkCET).
	case arch.MovImm:
		m.regs[ins.Rd] = uint64(ins.Imm)
	case arch.MovImm16:
		m.regs[ins.Rd] = uint64(ins.Imm) << (16 * ins.Shift)
	case arch.MovK16:
		mask := uint64(0xFFFF) << (16 * ins.Shift)
		m.regs[ins.Rd] = m.regs[ins.Rd]&^mask | uint64(ins.Imm)<<(16*ins.Shift)
	case arch.MovReg:
		m.regs[ins.Rd] = m.regs[ins.Rs1]
	case arch.ALU:
		v, err := aluOp(ins.Op, m.regs[ins.Rs1], m.regs[ins.Rs2])
		if err != nil {
			return &Fault{Kind: FaultDiv, PC: m.pc}
		}
		m.regs[ins.Rd] = v
	case arch.ALUImm:
		v, err := aluOp(ins.Op, m.regs[ins.Rs1], uint64(ins.Imm))
		if err != nil {
			return &Fault{Kind: FaultDiv, PC: m.pc}
		}
		m.regs[ins.Rd] = v
	case arch.AddIS:
		m.regs[ins.Rd] = m.regs[ins.Rs1] + uint64(ins.Imm<<16)
	case arch.AddImm16:
		m.regs[ins.Rd] = m.regs[ins.Rs1] + uint64(ins.Imm)
	case arch.Load:
		v, err := m.mem.Read(m.regs[ins.Rs1]+uint64(ins.Imm), ins.Size)
		if err != nil {
			return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
		}
		m.regs[ins.Rd] = extend(v, ins)
	case arch.Store:
		if err := m.mem.Write(m.regs[ins.Rs1]+uint64(ins.Imm), m.regs[ins.Rs2], ins.Size); err != nil {
			return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
		}
	case arch.LoadIdx:
		addr := m.regs[ins.Rs1] + m.regs[ins.Rs2]*uint64(ins.Scale) + uint64(ins.Imm)
		v, err := m.mem.Read(addr, ins.Size)
		if err != nil {
			return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
		}
		m.regs[ins.Rd] = extend(v, ins)
	case arch.Lea:
		m.regs[ins.Rd] = m.pc + uint64(ins.Imm)
	case arch.LeaHi:
		m.regs[ins.Rd] = (m.pc &^ 0xFFF) + uint64(ins.Imm)
	case arch.LoadPC:
		v, err := m.mem.Read(m.pc+uint64(ins.Imm), ins.Size)
		if err != nil {
			return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
		}
		m.regs[ins.Rd] = extend(v, ins)
	case arch.Branch:
		m.cycles += m.costs.TakenBranch
		next = m.pc + uint64(ins.Imm)
	case arch.BranchCond:
		if ins.Cond.Holds(int64(m.regs[ins.Rs1])) {
			m.cycles += m.costs.TakenBranch
			next = m.pc + uint64(ins.Imm)
		}
	case arch.Call:
		if err := m.pushRA(next); err != nil {
			return err
		}
		m.cycles += m.costs.CallRet
		next = m.pc + uint64(ins.Imm)
	case arch.CallInd:
		if err := m.checkCET(m.regs[ins.Rs1]); err != nil {
			return err
		}
		if err := m.pushRA(next); err != nil {
			return err
		}
		m.cycles += m.costs.CallRet
		next = m.regs[ins.Rs1]
	case arch.CallIndMem:
		target, err := m.mem.Read(m.regs[ins.Rs1]+uint64(ins.Imm), 8)
		if err != nil {
			return &Fault{Kind: FaultFetch, PC: m.pc, Msg: err.Error()}
		}
		if err := m.checkCET(target); err != nil {
			return err
		}
		if err := m.pushRA(next); err != nil {
			return err
		}
		m.cycles += m.costs.CallRet
		next = target
	case arch.JumpInd:
		if err := m.checkCET(m.regs[ins.Rs1]); err != nil {
			return err
		}
		m.cycles += m.costs.TakenBranch
		next = m.regs[ins.Rs1]
	case arch.Ret:
		m.cycles += m.costs.CallRet
		ra, err := m.popRA()
		if err != nil {
			return err
		}
		if ra == 0 {
			return &Fault{Kind: FaultRet, PC: m.pc}
		}
		next = ra
	case arch.Trap:
		m.traps++
		m.cycles += m.costs.Trap
		if m.rt != nil {
			if target, ok := m.rt.TrapTarget(m.pc - m.loadBase); ok {
				next = target + m.loadBase
				break
			}
		}
		return &Fault{Kind: FaultTrap, PC: m.pc}
	case arch.Halt:
		m.halted = true
	case arch.Syscall:
		if err := m.syscall(ins.Imm); err != nil {
			return err
		}
	case arch.Throw:
		target, err := m.dispatchException()
		if err != nil {
			return err
		}
		next = target
	default:
		return &Fault{Kind: FaultIllegal, PC: m.pc, Msg: ins.String()}
	}
	m.pc = next
	return nil
}

// checkCET enforces landing-pad semantics on an indirect transfer
// target: under Options.EnforceCET the instruction at target must be a
// Mark, anything else is a control-protection fault. The fault is
// reported at the target (where hardware raises #CP) with the
// transferring instruction's PC in the message.
func (m *Machine) checkCET(target uint64) error {
	if !m.cet {
		return nil
	}
	e, err := m.decode(target)
	if err == errNotExec {
		return &Fault{Kind: FaultCET, PC: target, Msg: fmt.Sprintf("indirect transfer from %#x to unmapped target", m.pc)}
	}
	if err != nil || e.ins.Kind != arch.Mark {
		return &Fault{Kind: FaultCET, PC: target, Msg: fmt.Sprintf("indirect transfer from %#x", m.pc)}
	}
	return nil
}

// extend applies the load's zero- or sign-extension to a raw value.
func extend(v uint64, ins arch.Instr) uint64 {
	if !ins.Signed || ins.Size >= 8 {
		return v
	}
	shift := 64 - 8*uint(ins.Size)
	return uint64(int64(v<<shift) >> shift)
}

func aluOp(op arch.ALUOp, a, b uint64) (uint64, error) {
	switch op {
	case arch.Add:
		return a + b, nil
	case arch.Sub:
		return a - b, nil
	case arch.Mul:
		return a * b, nil
	case arch.Div:
		if b == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return a / b, nil
	case arch.And:
		return a & b, nil
	case arch.Or:
		return a | b, nil
	case arch.Xor:
		return a ^ b, nil
	case arch.Shl:
		return a << (b & 63), nil
	default:
		return a >> (b & 63), nil
	}
}

// pushRA records the return address: on the stack for X64, in LR for the
// fixed-width ISAs.
func (m *Machine) pushRA(ra uint64) error {
	if m.arch.FixedWidth() {
		m.regs[arch.LR] = ra
		return nil
	}
	m.regs[arch.SP] -= 8
	return m.mem.Write(m.regs[arch.SP], ra, 8)
}

// popRA recovers the return address for Ret.
func (m *Machine) popRA() (uint64, error) {
	if m.arch.FixedWidth() {
		return m.regs[arch.LR], nil
	}
	ra, err := m.mem.Read(m.regs[arch.SP], 8)
	if err != nil {
		return 0, err
	}
	m.regs[arch.SP] += 8
	return ra, nil
}

func (m *Machine) syscall(num int64) error {
	switch num {
	case SysPrint:
		m.output = append(m.output, strconv.FormatUint(m.regs[arch.R1], 10)...)
		m.output = append(m.output, '\n')
	case SysPrintChar:
		m.output = append(m.output, byte(m.regs[arch.R1]))
	case SysTraceback:
		return m.traceback()
	default:
		return &Fault{Kind: FaultIllegal, PC: m.pc, Msg: fmt.Sprintf("unknown syscall %d", num)}
	}
	return nil
}

// dispatchException implements the C++-style personality routine: walk
// frames using the ORIGINAL unwind table, translating return addresses
// when the runtime library wraps the stepper, until a landing pad covers
// the (translated) PC. Returns the address execution resumes at — an
// original-code address, which is why catch blocks are CFL blocks.
func (m *Machine) dispatchException() (uint64, error) {
	translate := m.translator(Runtime.WrapsUnwind)
	pc := translate(m.pc)
	sp := m.regs[arch.SP]
	lr := m.regs[arch.LR]
	m.cycles += m.costs.ThrowSetup
	for depth := 0; depth < 1024; depth++ {
		// Return addresses point just past the call, so outer frames are
		// looked up at pc-1 (the standard DWARF personality adjustment);
		// the throwing frame's own pc is used as-is.
		lookupPC := pc
		if depth > 0 {
			lookupPC = pc - 1
		}
		pad, padOK, covered := m.padFor(lookupPC)
		if !covered {
			return 0, &Fault{Kind: FaultUnwind, PC: m.pc, Msg: fmt.Sprintf("no unwind info for %#x", pc)}
		}
		if padOK {
			m.regs[arch.SP] = sp
			m.cycles += m.costs.TakenBranch
			return pad.Pad + m.loadBase, nil
		}
		m.cycles += m.unwindFrameCost()
		m.unwindN++
		fr, err := m.stepFrame(translate, pc, sp, lr)
		if err != nil {
			return 0, &Fault{Kind: FaultUnwind, PC: m.pc, Msg: err.Error()}
		}
		if fr.RawPC == 0 {
			return 0, &Fault{Kind: FaultUncaught, PC: m.pc}
		}
		pc, sp, lr = fr.PC, fr.SP, 0
	}
	return 0, &Fault{Kind: FaultUncaught, PC: m.pc, Msg: "unwind depth exceeded"}
}

// unwindFrameCost returns the per-frame unwinding cost in effect.
func (m *Machine) unwindFrameCost() uint64 {
	if m.compiled != nil {
		return m.costs.UnwindFrameFast
	}
	return m.costs.UnwindFrame
}

// padFor consults the active unwinder for a landing pad at pc. The
// second result reports a pad hit; the third reports whether pc has any
// unwind coverage at all.
func (m *Machine) padFor(pc uint64) (unwind.LandingPad, bool, bool) {
	if m.compiled != nil {
		if !m.compiled.Covers(pc) {
			return unwind.LandingPad{}, false, false
		}
		pad, ok := m.compiled.PadFor(pc)
		return pad, ok, true
	}
	fde, ok := m.unwinds.Find(pc)
	if !ok {
		return unwind.LandingPad{}, false, false
	}
	pad, ok := fde.PadFor(pc)
	return pad, ok, true
}

// stepFrame performs one frame step with the active unwinder.
func (m *Machine) stepFrame(translate unwind.Translator, pc, sp, lr uint64) (unwind.Frame, error) {
	if m.compiled != nil {
		return m.compiled.Step(m.arch, m.mem, translate, pc, sp, lr)
	}
	return unwind.Step(m.arch, m.unwinds, m.mem, translate, pc, sp, lr)
}

// traceback implements the Go runtime stack walk: every frame's PC must
// resolve through the pclntab (runtime.findfunc), and the fold of
// pcvalue results is the observable outcome. The RA translation hook is
// the entry instrumentation of runtime.findfunc/runtime.pcvalue from
// Section 6.2.
func (m *Machine) traceback() error {
	if m.pctab == nil {
		return &Fault{Kind: FaultGoRuntime, PC: m.pc, Msg: "no pclntab"}
	}
	m.walks++
	translate := m.translator(Runtime.PatchesGoRuntime)
	var frames []unwind.Frame
	var err error
	if m.compiled != nil {
		frames, err = m.compiled.Walk(m.arch, m.mem, translate, m.pc, m.regs[arch.SP], m.regs[arch.LR], 256)
	} else {
		frames, err = unwind.Walk(m.arch, m.unwinds, m.mem, translate, m.pc, m.regs[arch.SP], m.regs[arch.LR], 256)
	}
	if err != nil {
		return &Fault{Kind: FaultGoRuntime, PC: m.pc, Msg: err.Error()}
	}
	var sum uint64
	for _, fr := range frames {
		m.cycles += m.unwindFrameCost()
		v, ok := m.pctab.PCValue(fr.PC)
		if !ok {
			return &Fault{Kind: FaultGoRuntime, PC: m.pc, Msg: fmt.Sprintf("findfunc failed for %#x", fr.PC)}
		}
		sum = sum*131 + v
	}
	m.regs[arch.R0] = sum
	m.output = append(m.output, "tb:"...)
	m.output = append(m.output, strconv.FormatUint(sum, 16)...)
	m.output = append(m.output, '\n')
	return nil
}
