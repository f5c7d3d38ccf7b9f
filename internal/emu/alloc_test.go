package emu

import (
	"runtime"
	"testing"
	"unsafe"

	"icfgpatch/internal/arch"
)

// allocProgram is a loop of loads, stores, stack traffic, direct and
// CET-checked indirect calls, with a profiled block: every per-instruction
// path of step that a verification run takes. It prints nothing, so a
// run has no output to grow.
func allocProgram(t *testing.T, a arch.Arch, trips uint64) (*textBuilder, uint64) {
	const data = 0x402000
	const leaf = textBase + 0x200
	b := newTextBuilder(t, a)
	b.mov(arch.R7, data).mov(arch.R8, leaf).mov(arch.R4, trips)
	loop := b.pc
	b.emit(
		arch.Instr{Kind: arch.Load, Rd: arch.R5, Rs1: arch.R7, Size: 8},
		arch.Instr{Kind: arch.ALUImm, Op: arch.Add, Rd: arch.R5, Rs1: arch.R5, Imm: 1},
		arch.Instr{Kind: arch.Store, Rs1: arch.R7, Rs2: arch.R5, Size: 8},
		arch.Instr{Kind: arch.CallInd, Rs1: arch.R8},
	)
	b.call(leaf)
	b.emit(arch.Instr{Kind: arch.ALUImm, Op: arch.Sub, Rd: arch.R4, Rs1: arch.R4, Imm: 1})
	b.emit(arch.Instr{Kind: arch.BranchCond, Cond: arch.NE, Rs1: arch.R4, Imm: int64(loop) - int64(b.pc)})
	b.emit(arch.Instr{Kind: arch.Halt})
	b.at(leaf).emit(
		arch.Instr{Kind: arch.Mark},
		arch.Instr{Kind: arch.Store, Rs1: arch.SP, Rs2: arch.R5, Imm: -32, Size: 8},
		arch.Instr{Kind: arch.Load, Rd: arch.R6, Rs1: arch.SP, Imm: -32, Size: 8},
		arch.Instr{Kind: arch.Ret},
	)
	return b, loop
}

// TestRunAllocationFree re-runs a loaded machine whose code, data and
// stack pages are already warm: Run must not allocate at all, however
// many instructions it executes.
func TestRunAllocationFree(t *testing.T) {
	for _, a := range arch.All() {
		t.Run(a.String(), func(t *testing.T) {
			b, loop := allocProgram(t, a, 200)
			opts := Options{ProfileAddrs: []uint64{loop}, CaptureHeat: true, TraceDepth: 4, EnforceCET: true}
			m, err := Load(b.binary(make([]byte, 64), 0x402000), opts)
			if err != nil {
				t.Fatal(err)
			}
			entry, sp := m.pc, m.regs[arch.SP]
			rerun := func() {
				m.regs = [arch.NumRegs]uint64{}
				m.regs[arch.SP] = sp
				m.pc, m.halted = entry, false
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			}
			rerun() // warm: first touches of pages and map keys allocate
			before := m.instrs
			if n := testing.AllocsPerRun(20, rerun); n != 0 {
				t.Errorf("Run allocated %v times per run of %d instructions, want 0", n, (m.instrs-before)/21)
			}
			if got := m.profile[loop]; got != 200*22 {
				t.Errorf("profiled loop head counted %d times, want %d", got, 200*22)
			}
		})
	}
}

// TestLoadAllocationBounded pins that Load does not materialise the
// stack: no stack page exists before the program touches one, and a
// Load allocates the machine plus its image pages, not stackSize bytes.
func TestLoadAllocationBounded(t *testing.T) {
	b, _ := allocProgram(t, arch.X64, 1)
	data := make([]byte, 64)
	data[0] = 1
	bn := b.binary(data, 0x402000)
	m, err := Load(bn, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for base := range m.mem.pages {
		if a := base * pageSize; a >= stackTop-stackSize && a < stackTop {
			t.Errorf("stack page %#x mapped by Load", a)
		}
	}
	if len(m.mem.pages) != 2 { // one text page, one data page
		t.Errorf("Load mapped %d pages, want 2", len(m.mem.pages))
	}

	if n := testing.AllocsPerRun(10, func() { Load(bn, Options{}) }); n > 16 {
		t.Errorf("Load allocated %v times, want at most 16", n)
	}
	const loads = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < loads; i++ {
		if _, err := Load(bn, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perLoad := (after.TotalAlloc - before.TotalAlloc) / loads
	if limit := uint64(unsafe.Sizeof(Machine{})) + 64<<10; perLoad > limit {
		t.Errorf("Load allocated %d bytes, want at most %d (the machine plus 64 KiB)", perLoad, limit)
	}
}
