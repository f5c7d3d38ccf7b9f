package core

import (
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
)

// This file is the EMIT stage of the staged patch pipeline. Each
// function's unit is encoded through the per-arch arch.Emitter into its
// window of one output buffer: every input the emitter sees — resolved
// targets, assigned addresses, expansion states — is captured in the
// unit's items. Emission is recomputed on every Patch, never cached:
// arch.EmitInto renders into a stack buffer and encodes straight into
// the unit's window, so re-encoding allocates nothing and costs less
// than any signature that could prove a cached window still valid.

// emitUnit encodes one unit into its window of out and writes its
// return-address pairs, in item order, into ra — the unit's slot of
// the plan-wide pair slice layout sized.
func (p *PatchPlan) emitUnit(u *planUnit, out []byte, ra []bin.AddrPair) error {
	k := 0
	for i := range u.items {
		it := &u.items[i]
		eit := arch.EmitItem{
			Ins:       it.ins,
			HasTarget: it.tk != tkNone,
			Form:      it.pf,
			Target:    p.resolveTarget(it),
			Expand:    it.expand,
			NewAddr:   it.newAddr,
			NewLen:    it.newLen,
			OrigAddr:  it.origAddr,
			OrigLen:   it.origLen,
		}
		off := it.newAddr - p.instrBase
		if _, err := arch.EmitInto(p.emitter, p.env, eit, out[off:off+uint64(it.newLen)]); err != nil {
			return fmt.Errorf("core: emitting %s: %w", u.fn.Name, err)
		}
		switch it.ra {
		case raCallRet:
			ra[k] = bin.AddrPair{
				From: it.newAddr + uint64(it.newLen),
				To:   it.origAddr + uint64(it.origLen),
			}
			k++
		case raSelf:
			ra[k] = bin.AddrPair{From: it.newAddr, To: it.origAddr}
			k++
		}
	}
	return nil
}

// emit produces the .instr bytes, the return-address map, and the clone
// section contents, and counts the units it encoded.
func (p *PatchPlan) emit() (out, cloneData []byte, raPairs []bin.AddrPair, encoded int, err error) {
	a := p.an.Binary.Arch
	// The output buffer comes from the emit pool (see pool.go); it is
	// fully overwritten here — illegal-instruction fill end to end, then
	// each unit's window — so recycled contents can never leak through.
	out = getEmitBuf(int(p.instrEnd - p.instrBase))
	arch.FillIllegal(a, out) // unreachable alignment padding must not execute silently
	raPairs = make([]bin.AddrPair, p.raCount)
	for _, u := range p.units {
		if err := p.emitUnit(u, out, raPairs[u.raStart:]); err != nil {
			putEmitBuf(out)
			return nil, nil, nil, 0, err
		}
		if len(u.items) > 0 {
			encoded++
		}
	}

	// Clone contents: solve tar(x) = relocated target for each entry.
	if len(p.clones) > 0 {
		var base, end uint64
		base = p.clones[0].addr
		last := p.clones[len(p.clones)-1]
		end = last.addr + uint64(last.newEntry*last.tbl.Count)
		// Pooled like out, but alignment gaps between clones must read
		// as zero, so the recycled buffer is cleared first.
		cloneData = getEmitBuf(int(end - base))
		clear(cloneData)
		for _, c := range p.clones {
			for k, origTarget := range c.tbl.Targets {
				nt, ok := p.relocMap[origTarget]
				if !ok {
					putEmitBuf(out)
					putEmitBuf(cloneData)
					return nil, nil, nil, 0, fmt.Errorf("core: clone target %#x has no relocation", origTarget)
				}
				var x uint64
				switch c.tbl.Kind {
				case cfg.TarAbs:
					x = nt
				case cfg.TarTableRel:
					x = nt - c.addr
				case cfg.TarFuncRel4:
					nf, ok := p.unitStart[c.owner.Name]
					if !ok {
						putEmitBuf(out)
						putEmitBuf(cloneData)
						return nil, nil, nil, 0, fmt.Errorf("core: clone owner %s has no relocated unit", c.owner.Name)
					}
					x = (nt - nf) / 4
				}
				off := c.addr - base + uint64(k*c.newEntry)
				for i := 0; i < c.newEntry; i++ {
					cloneData[off+uint64(i)] = byte(x >> (8 * i))
				}
			}
		}
	}
	return out, cloneData, raPairs, encoded, nil
}
