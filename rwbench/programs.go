package main

import (
	"fmt"
	"math"
	"math/rand"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/workload"
)

// family names a class of real programs whose traits the generator
// imitates. Each workload draws its programs from these classes with
// seeded knobs, so a seed changes every generated binary while the mix of
// traits — and with it the cost distribution the timings summarise —
// stays the same from seed to seed.
type family int

const (
	famSPEC    family = iota // SPEC CPU-like: switch-heavy C/Fortran, some C++
	famLibxul                // libxul-like: C++/Rust, exceptions, tiny funcs, destructors
	famDocker                // docker-like: Go runtime, traceback walks, imprecise func table
	famLibcuda               // libcuda-like: thunks and dispatchers, symbol versioning
	numFamilies
)

func (f family) String() string {
	return [...]string{"spec", "libxul", "docker", "libcuda"}[f]
}

func between(r *rand.Rand, lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// profileFor draws the generator knobs of one program. Multi-command
// programs (the libxul and docker classes) are drawn on x64 only:
// workload.Generate with Commands > 0 fails to link on ppc and a64 (the
// command-mixing immediate is out of range for their ALU forms).
func profileFor(r *rand.Rand, f family, a arch.Arch, cfi bool, name string) workload.Profile {
	p := workload.Profile{
		Name:  name,
		Seed:  r.Int63(),
		Funcs: 32,
		Iters: 1,
		CFI:   cfi,
	}
	switch f {
	case famSPEC:
		p.Lang = [...]string{"c", "fortran", "c++"}[r.Intn(3)]
		p.SwitchFrac = between(r, 0.10, 0.55)
		p.SpillFrac = between(r, 0, 0.30)
		p.TinyFrac = between(r, 0.04, 0.15)
		p.TailCallFrac = between(r, 0, 0.08)
		p.StackCalls = r.Intn(2) == 0
		p.Exceptions = p.Lang == "c++"
	case famLibxul:
		p.Lang = "c++/rust"
		p.SwitchFrac = between(r, 0.20, 0.35)
		p.SpillFrac = between(r, 0.08, 0.15)
		p.OpaqueFrac = between(r, 0, 0.02)
		p.TinyFrac = between(r, 0.15, 0.25)
		p.DispatcherFrac = between(r, 0.05, 0.10)
		p.TailCallFrac = between(r, 0.02, 0.05)
		p.Exceptions = true
		p.StackCalls = true
		p.DtorFuncs = 2 + r.Intn(5)
		if a == arch.X64 {
			p.Commands = 2
		}
	case famDocker:
		p.Lang = "go"
		p.TinyFrac = between(r, 0.10, 0.20)
		p.GoRuntime = true
		p.GoVtab = true
		p.StackCalls = true
		if a == arch.X64 {
			p.Commands = 4 + r.Intn(10)
		}
	case famLibcuda:
		p.Lang = "c++"
		p.SwitchFrac = between(r, 0.02, 0.06)
		p.SpillFrac = between(r, 0.20, 0.40)
		p.TinyFrac = between(r, 0.20, 0.30)
		p.DispatcherFrac = between(r, 0.40, 0.60)
		p.ExtraMeta = map[string]string{"symbol-versioning": "1"}
	}
	return p
}

// sizedProgram draws a program of family f whose .text is about
// textBytes long: it generates the drawn profile once, then again with
// the function count scaled to the target. With instrs > 0 it then sets
// the main-loop trip count so that the program executes about that many
// instructions. Sizing by bytes and instructions, as benchmark suites
// size their inputs, keeps the cost of each input close to the same from
// seed to seed while the seed still changes every program.
func sizedProgram(r *rand.Rand, f family, a arch.Arch, textBytes, instrs int, cfi bool) (*workload.Program, error) {
	name := fmt.Sprintf("%s-%s-%dk", f, a, textBytes>>10)
	if cfi {
		name += "-cfi"
	}
	prof := profileFor(r, f, a, cfi, name)
	p, err := workload.Generate(a, true, prof)
	if err != nil {
		return nil, err
	}
	prof.Funcs = max(4, int(float64(prof.Funcs)*float64(textBytes)/float64(len(p.Binary.Text().Data))+0.5))
	prof.Roots = rootsFor(prof.Funcs)
	if p, err = workload.Generate(a, true, prof); err != nil || instrs <= 0 {
		return p, err
	}
	one, _, err := execute(nil, p.Binary, commandArg(p), cfi, false, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: sizing run: %w", name, err)
	}
	prof.Iters = max(1, int(uint64(instrs)/max(one.Instrs, 1)))
	return workload.Generate(a, true, prof)
}

// rootsFor is how many functions main calls directly. Calling a wide
// slice of the program, not the generator's default four, spreads each
// run over many functions, so a program's cycle overhead is an average
// rather than the luck of a few hot blocks.
func rootsFor(funcs int) int { return max(4, funcs/8) }

// commandArg is the startup argument a generated program runs with:
// command 1 for multi-command programs, none otherwise.
func commandArg(p *workload.Program) uint64 {
	if p.Profile.Commands > 0 {
		return 1
	}
	return 0
}

// spread returns n sizes covering [lo, hi) evenly on a log scale, the
// middle of each of n equal slots. Real program sizes are spread the
// same way: many small binaries, a few large ones, whose cost sets the
// latency tail. The sizes are the same for every seed, as a benchmark
// suite's input sizes are; the seed changes the programs themselves.
func spread(n, lo, hi int) []int {
	out := make([]int, n)
	step := math.Log(float64(hi)/float64(lo)) / float64(n)
	for i := range out {
		out[i] = int(float64(lo) * math.Exp(step*(float64(i)+0.5)))
	}
	return out
}
