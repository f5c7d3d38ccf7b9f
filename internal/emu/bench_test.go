package emu_test

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/workload"
)

// BenchmarkEmuRun loads and runs one generated SPEC-like program per
// ISA, reporting emulation speed per executed instruction. Run it with
// `make bench-emu`.
func BenchmarkEmuRun(b *testing.B) {
	for _, a := range arch.All() {
		b.Run(a.String(), func(b *testing.B) {
			p, err := workload.Generate(a, false, workload.Profile{
				Name: "emu-bench", Seed: 1, Lang: "c", Funcs: 24,
				SwitchFrac: 0.3, SpillFrac: 0.1, TinyFrac: 0.1, StackCalls: true, Iters: 60,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				m, err := emu.Load(p.Binary, emu.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				instrs += res.Instrs
			}
			b.StopTimer()
			ns := float64(b.Elapsed().Nanoseconds())
			b.ReportMetric(ns/float64(instrs), "ns/instr")
			b.ReportMetric(float64(instrs)/ns*1e3, "Minstr/s")
		})
	}
}
