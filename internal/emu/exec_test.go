package emu

import (
	"fmt"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// The tests in this file pin what a run observes when it executes code
// it has already executed before: stores into the executable range,
// instructions that overlap or share a cache slot, and the faults and
// trace of code that ran earlier in the same run. They hold for any
// fetch/decode strategy, cached or not.

const textBase = 0x401000

// textBuilder lays out instructions at chosen addresses in one text
// section starting at textBase.
type textBuilder struct {
	t    *testing.T
	a    arch.Arch
	enc  arch.Encoding
	text []byte
	pc   uint64
}

func newTextBuilder(t *testing.T, a arch.Arch) *textBuilder {
	t.Helper()
	return &textBuilder{t: t, a: a, enc: arch.ForArch(a), pc: textBase}
}

// at moves the emission point to addr; gaps stay zero-filled.
func (b *textBuilder) at(addr uint64) *textBuilder {
	b.pc = addr
	return b
}

// emit encodes instrs at the emission point.
func (b *textBuilder) emit(instrs ...arch.Instr) *textBuilder {
	b.t.Helper()
	for _, ins := range instrs {
		bs, err := b.enc.AppendEncode(nil, ins)
		if err != nil {
			b.t.Fatalf("encode %s: %v", ins, err)
		}
		off := int(b.pc - textBase)
		for len(b.text) < off+len(bs) {
			b.text = append(b.text, 0)
		}
		copy(b.text[off:], bs)
		b.pc += uint64(len(bs))
	}
	return b
}

// call emits a direct call to target.
func (b *textBuilder) call(target uint64) *textBuilder {
	return b.emit(arch.Instr{Kind: arch.Call, Imm: int64(target - b.pc)})
}

// jump emits a direct branch to target.
func (b *textBuilder) jump(target uint64) *textBuilder {
	return b.emit(arch.Instr{Kind: arch.Branch, Imm: int64(target - b.pc)})
}

// mov materialises v in rd: one movimm on X64, a movz/movk chain on the
// fixed-width ISAs.
func (b *textBuilder) mov(rd arch.Reg, v uint64) *textBuilder {
	if b.a == arch.X64 {
		return b.emit(arch.Instr{Kind: arch.MovImm, Rd: rd, Imm: int64(v)})
	}
	b.emit(arch.Instr{Kind: arch.MovImm16, Rd: rd, Imm: int64(v & 0xFFFF)})
	for s := uint8(1); s < 4; s++ {
		if chunk := v >> (16 * s) & 0xFFFF; chunk != 0 {
			b.emit(arch.Instr{Kind: arch.MovK16, Rd: rd, Imm: int64(chunk), Shift: s})
		}
	}
	return b
}

// print emits code printing v.
func (b *textBuilder) print(v uint64) *textBuilder {
	return b.mov(arch.R1, v).emit(arch.Instr{Kind: arch.Syscall, Imm: SysPrint})
}

// binary wraps the text in a position-dependent binary entered at
// textBase, plus an optional writable data section.
func (b *textBuilder) binary(data []byte, dataAddr uint64) *bin.Binary {
	b.t.Helper()
	out := bin.New(b.a)
	out.Entry = textBase
	if _, err := out.AddSection(&bin.Section{Name: bin.SecText, Addr: textBase, Data: b.text, Flags: bin.FlagAlloc | bin.FlagExec}); err != nil {
		b.t.Fatal(err)
	}
	if data != nil {
		if _, err := out.AddSection(&bin.Section{Name: bin.SecData, Addr: dataAddr, Data: data, Flags: bin.FlagAlloc | bin.FlagWrite}); err != nil {
			b.t.Fatal(err)
		}
	}
	return out
}

func (b *textBuilder) encode(ins arch.Instr) []byte {
	b.t.Helper()
	bs, err := b.enc.AppendEncode(nil, ins)
	if err != nil {
		b.t.Fatalf("encode %s: %v", ins, err)
	}
	return bs
}

// le packs up to 8 bytes little endian.
func le(bs []byte) uint64 {
	var v uint64
	for i, x := range bs {
		v |= uint64(x) << (8 * i)
	}
	return v
}

// storeCode emits stores that write bs over the code at addr, in
// chunks of at most 8 bytes (R2 address, R3 value).
func (b *textBuilder) storeCode(addr uint64, bs []byte) *textBuilder {
	for len(bs) > 0 {
		n := len(bs)
		if n > 8 {
			n = 8
		}
		size := uint8(n)
		for size&(size-1) != 0 { // widths are 1, 2, 4 or 8
			size &= size - 1
		}
		b.mov(arch.R2, addr).mov(arch.R3, le(bs[:size]))
		b.emit(arch.Instr{Kind: arch.Store, Rs1: arch.R2, Rs2: arch.R3, Size: size})
		addr += uint64(size)
		bs = bs[size:]
	}
	return b
}

func runOutput(t *testing.T, b *bin.Binary, opts Options) (Result, *Machine) {
	t.Helper()
	m, err := Load(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v (output %q)", err, res.Output)
	}
	return res, m
}

// TestSelfModifyingCodeExecutesNewBytes stores new instruction bytes
// over a routine that has already run, then calls it again: the second
// call must execute the new instruction, not the one decoded first.
func TestSelfModifyingCodeExecutesNewBytes(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.A64} {
		t.Run(a.String(), func(t *testing.T) {
			const routine = textBase + 0x200
			b := newTextBuilder(t, a)
			// routine: r1 = 1; print; ret — its first instruction is
			// the one overwritten.
			b.at(routine)
			first := arch.Instr{Kind: arch.MovImm, Rd: arch.R1, Imm: 1}
			second := arch.Instr{Kind: arch.MovImm, Rd: arch.R1, Imm: 2}
			if a != arch.X64 {
				first = arch.Instr{Kind: arch.MovImm16, Rd: arch.R1, Imm: 1}
				second = arch.Instr{Kind: arch.MovImm16, Rd: arch.R1, Imm: 2}
			}
			b.emit(first, arch.Instr{Kind: arch.Syscall, Imm: SysPrint}, arch.Instr{Kind: arch.Ret})
			b.at(textBase)
			for i := 0; i < 3; i++ { // warm: the routine runs several times
				b.call(routine)
			}
			b.storeCode(routine, b.encode(second))
			b.call(routine)
			b.emit(arch.Instr{Kind: arch.Halt})
			res, _ := runOutput(t, b.binary(nil, 0), Options{})
			if want := "1\n1\n1\n2\n"; string(res.Output) != want {
				t.Errorf("output = %q, want %q", res.Output, want)
			}
		})
	}
}

// TestSelfModifyingStoreJustAhead rewrites the immediate of the
// instruction right after the store on every loop trip: from the second
// trip on, the old bytes have executed before.
func TestSelfModifyingStoreJustAhead(t *testing.T) {
	const loop = textBase + 0x100
	build := func(target uint64) (*textBuilder, uint64) {
		b := newTextBuilder(t, arch.X64)
		b.mov(arch.R4, 3).jump(loop) // r4 = trips left
		b.at(loop)
		b.emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Mul, Rd: arch.R3, Rs1: arch.R4, Imm: 10})
		b.mov(arch.R2, target+2) // low byte of the movimm's immediate
		b.emit(arch.Instr{Kind: arch.Store, Rs1: arch.R2, Rs2: arch.R3, Size: 1})
		at := b.pc
		b.emit(arch.Instr{Kind: arch.MovImm, Rd: arch.R1, Imm: 0})
		b.emit(arch.Instr{Kind: arch.Syscall, Imm: SysPrint})
		b.emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Sub, Rd: arch.R4, Rs1: arch.R4, Imm: 1})
		b.emit(arch.Instr{Kind: arch.BranchCond, Cond: arch.NE, Rs1: arch.R4, Imm: int64(loop) - int64(b.pc)})
		b.emit(arch.Instr{Kind: arch.Halt})
		return b, at
	}
	_, target := build(0)
	b, at := build(target)
	if at != target {
		t.Fatalf("layout moved: %#x != %#x", at, target)
	}
	res, _ := runOutput(t, b.binary(nil, 0), Options{})
	if want := "30\n20\n10\n"; string(res.Output) != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

// TestOverlappingDecodesDoNotAlias executes the same bytes at pc and
// at pc+1, where they decode to different instructions: a movimm of
// r10 at pc, and a print syscall followed by halt at pc+1 (register
// byte 0x0A is the syscall opcode, the immediate's low bytes are its
// number and a halt).
func TestOverlappingDecodesDoNotAlias(t *testing.T) {
	const routine = textBase + 0x100
	imm := uint64(SysPrint) | 0xF4<<8 // syscall 1; then hlt at pc+3
	b := newTextBuilder(t, arch.X64)
	b.mov(arch.R1, 42)
	b.call(routine) // runs the 10-byte movimm at routine, then ret
	b.call(routine)
	b.emit(arch.Instr{Kind: arch.MovReg, Rd: arch.R1, Rs1: arch.R10})
	b.emit(arch.Instr{Kind: arch.Syscall, Imm: SysPrint})
	b.mov(arch.R1, 7)
	b.jump(routine + 1) // same bytes, one later: print r1, halt
	b.at(routine)
	b.emit(arch.Instr{Kind: arch.MovImm, Rd: arch.R10, Imm: int64(imm)}, arch.Instr{Kind: arch.Ret})
	enc := arch.ForArch(arch.X64)
	if ins, _ := enc.Decode(b.text[routine+1-textBase:], routine+1); ins.Kind != arch.Syscall {
		t.Fatalf("pc+1 decodes as %s, want a syscall", ins)
	}
	res, _ := runOutput(t, b.binary(nil, 0), Options{})
	if want := fmt.Sprintf("%d\n7\n", imm); string(res.Output) != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
}

// sameSlotStride separates two routines by 64 KiB: a direct-mapped
// PC-indexed cache of up to 16K entries on the fixed-width ISAs (PC/4
// indexed) or 64K entries on X64 (byte indexed) puts both in one slot.
const sameSlotStride = 1 << 16

// TestSameSlotRoutinesDoNotAlias alternates calls between two routines
// whose PCs are a power-of-two stride apart, so any direct-mapped
// decoded-instruction cache keeps evicting one with the other.
func TestSameSlotRoutinesDoNotAlias(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.A64} {
		t.Run(a.String(), func(t *testing.T) {
			p := uint64(textBase + 0x100)
			q := p + sameSlotStride
			b := newTextBuilder(t, a)
			for i := 0; i < 3; i++ {
				b.call(p).call(q)
			}
			b.emit(arch.Instr{Kind: arch.Halt})
			b.at(p).print(1).emit(arch.Instr{Kind: arch.Ret})
			b.at(q).print(2).emit(arch.Instr{Kind: arch.Ret})
			res, _ := runOutput(t, b.binary(nil, 0), Options{})
			if want := "1\n2\n1\n2\n1\n2\n"; string(res.Output) != want {
				t.Errorf("output = %q, want %q", res.Output, want)
			}
		})
	}
}

// warmLoop emits a loop that runs a few trips of straight-line code,
// so everything before the code under test has executed repeatedly.
func warmLoop(b *textBuilder, trips uint64) {
	b.mov(arch.R4, trips)
	top := b.pc
	b.emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Add, Rd: arch.R5, Rs1: arch.R5, Imm: 1})
	b.emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Sub, Rd: arch.R4, Rs1: arch.R4, Imm: 1})
	b.emit(arch.Instr{Kind: arch.BranchCond, Cond: arch.NE, Rs1: arch.R4, Imm: int64(top) - int64(b.pc)})
}

// TestFetchFaultsAfterWarmCode jumps, after a warm loop, to data, to
// unmapped memory and to the first byte past the text: each is a
// FaultFetch at the target, as on a cold run.
func TestFetchFaultsAfterWarmCode(t *testing.T) {
	const data = 0x402000
	for _, a := range []arch.Arch{arch.X64, arch.PPC} {
		b := newTextBuilder(t, a)
		warmLoop(b, 4)
		b.emit(arch.Instr{Kind: arch.JumpInd, Rs1: arch.R1}) // r1 = Options.Arg
		textEnd := b.pc
		bn := b.binary(make([]byte, 64), data)
		for _, target := range []uint64{data, data + 8, 0x900000, textEnd} {
			m, err := Load(bn, Options{Arg: target})
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			f, ok := err.(*Fault)
			if !ok || f.Kind != FaultFetch || f.PC != target {
				t.Errorf("%s: jump to %#x: err = %v, want fetch fault at the target", a, target, err)
			}
		}
	}
}

// TestIllegalFaultsEveryTime reaches an illegal instruction after warm
// code; the fault repeats on every attempt to execute it, including a
// second Run of the same machine and an illegal instruction stored
// over code that already ran.
func TestIllegalFaultsEveryTime(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.A64} {
		t.Run(a.String(), func(t *testing.T) {
			b := newTextBuilder(t, a)
			warmLoop(b, 4)
			at := b.pc
			b.emit(arch.Instr{Kind: arch.Illegal})
			m, err := Load(b.binary(nil, 0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			var instrs uint64
			for i := 0; i < 3; i++ {
				res, err := m.Run()
				f, ok := err.(*Fault)
				if !ok || f.Kind != FaultIllegal || f.PC != at || f.Msg != "" {
					t.Fatalf("attempt %d: err = %v, want illegal instruction at %#x", i, err, at)
				}
				if i > 0 && res.Instrs != instrs {
					t.Errorf("attempt %d: %d instructions retired, want %d (the illegal one never retires)", i, res.Instrs, instrs)
				}
				instrs = res.Instrs
			}

			// Stored over a routine that already ran twice.
			const routine = textBase + 0x200
			b = newTextBuilder(t, a)
			b.call(routine).call(routine)
			b.storeCode(routine, b.encode(arch.Instr{Kind: arch.Illegal}))
			b.call(routine)
			b.emit(arch.Instr{Kind: arch.Halt})
			b.at(routine).emit(arch.Instr{Kind: arch.Nop}, arch.Instr{Kind: arch.Ret})
			m, err = Load(b.binary(nil, 0), Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = m.Run()
			if f, ok := err.(*Fault); !ok || f.Kind != FaultIllegal || f.PC != routine || f.Msg != "" {
				t.Errorf("stored illegal: err = %v, want illegal instruction at %#x", err, uint64(routine))
			}
		})
	}
}

// TestCETFaultsAfterWarmCode calls a routine directly (so its first
// instruction has executed and decoded) and then indirectly: the
// routine starts with a nop, not a landing pad, so the indirect call
// faults with the same message as a cold run. A marked routine called
// the same way passes, and an unmapped target gets the unmapped message.
func TestCETFaultsAfterWarmCode(t *testing.T) {
	for _, a := range []arch.Arch{arch.X64, arch.PPC} {
		t.Run(a.String(), func(t *testing.T) {
			const marked = textBase + 0x200
			const unmarked = textBase + 0x300
			b := newTextBuilder(t, a)
			b.call(marked).call(unmarked)
			b.mov(arch.R6, marked).emit(arch.Instr{Kind: arch.CallInd, Rs1: arch.R6})
			b.emit(arch.Instr{Kind: arch.CallInd, Rs1: arch.R1}) // r1 = Options.Arg
			callAt := b.pc - uint64(len(b.encode(arch.Instr{Kind: arch.CallInd, Rs1: arch.R1})))
			b.emit(arch.Instr{Kind: arch.Halt})
			b.at(marked).emit(arch.Instr{Kind: arch.Mark}, arch.Instr{Kind: arch.Ret})
			b.at(unmarked).emit(arch.Instr{Kind: arch.Nop}, arch.Instr{Kind: arch.Ret})
			bn := b.binary(nil, 0)
			for _, tc := range []struct {
				target uint64
				msg    string
			}{
				{unmarked, fmt.Sprintf("indirect transfer from %#x", callAt)},
				{0x900000, fmt.Sprintf("indirect transfer from %#x to unmapped target", callAt)},
			} {
				m, err := Load(bn, Options{EnforceCET: true, Arg: tc.target})
				if err != nil {
					t.Fatal(err)
				}
				_, err = m.Run()
				f, ok := err.(*Fault)
				if !ok || f.Kind != FaultCET || f.PC != tc.target || f.Msg != tc.msg {
					t.Errorf("target %#x: err = %v, want CET fault at the target with message %q", tc.target, err, tc.msg)
				}
			}
			runOutput(t, bn, Options{EnforceCET: true, Arg: marked}) // lands on the mark: no fault
		})
	}
}

// TestTraceRingAfterWarmCode checks the trace ring after a warm loop
// and after a fault: the most recent executed PCs, oldest first, with
// the faulting PC itself not recorded.
func TestTraceRingAfterWarmCode(t *testing.T) {
	b := newTextBuilder(t, arch.PPC)
	warmLoop(b, 3) // mov r4 (one word), then add/sub/bne at top
	top := uint64(textBase + 4)
	b.emit(arch.Instr{Kind: arch.Nop})
	b.emit(arch.Instr{Kind: arch.Illegal})
	m, err := Load(b.binary(nil, 0), Options{TraceDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); !IsFault(err, FaultIllegal) {
		t.Fatalf("err = %v, want illegal instruction", err)
	}
	// The second trip's bne, the last trip's add, sub and falling-through
	// bne, then the nop.
	want := []uint64{top + 8, top, top + 4, top + 8, top + 12}
	got := m.Trace()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("trace = %#x, want %#x", got, want)
	}
}
