package core

import (
	"fmt"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
)

// This file is the LAYOUT stage of the staged patch pipeline: a
// deterministic, arch-parameterized but encoding-free address
// assignment over the PatchPlan. It plans where every new and moved
// section lands, places cloned tables, and iterates per-item address
// assignment with range checking to a fixpoint — growing items into
// islands, adrp pairs, and veneers through the emitter's ExpandedLen,
// never through actual encoding. After layout, every item has a final
// (newAddr, newLen) and every resolved target is a pure function of the
// plan, which is what emit-stage parallelism relies on.

// sectionMove relocates one dynamic-linking section, retiring the
// original range as trampoline scratch space (Section 3).
type sectionMove struct {
	name    string
	addr    uint64 // new address
	oldAddr uint64
	oldEnd  uint64
	scratch bool // donate the retired range to the scratch pool
}

// sectionPlan is the read-only address plan for the rewrite's new and
// moved sections; it is computed from the input binary without cloning
// or mutating it, so PlanFor can produce a full plan for inspection.
type sectionPlan struct {
	moves     []sectionMove
	cloneBase uint64
	instrBase uint64
}

// layoutAll runs the whole layout stage: section planning, clone
// placement, then the item-address fixpoint.
func (p *PatchPlan) layoutAll(opts Options) error {
	p.planSections(opts)
	p.placeClones(p.sections.cloneBase)
	return p.layout(p.sections.instrBase)
}

// planSections assigns addresses to the counter region, the moved
// dynamic-linking sections, the clone section, and .instr — the same
// arithmetic the serial rewriter interleaved with binary mutation, now
// computed up front from the input binary alone.
func (p *PatchPlan) planSections(opts Options) {
	b := p.an.Binary
	// Selector cells sit directly above the counter region ([selBase,
	// selEnd)); without variants selEnd == nextCell and the arithmetic
	// is bit-identical to an unguided plan.
	cursor := alignUp(p.selEnd, sectionGap) + sectionGap
	for _, name := range []string{bin.SecDynSym, bin.SecDynStr, bin.SecRelaDyn} {
		old := b.Section(name)
		if old == nil {
			continue
		}
		mv := sectionMove{
			name:    name,
			addr:    cursor,
			oldAddr: old.Addr,
			oldEnd:  old.End(),
			scratch: old.Size() > 0 && !opts.Variant.NoScratchSections,
		}
		p.sections.moves = append(p.sections.moves, mv)
		cursor = alignUp(cursor+old.Size(), sectionGap) + sectionGap
	}
	p.sections.cloneBase = cursor
	cursor = alignUp(cursor+p.cloneBytes(), sectionGap) + sectionGap
	p.sections.instrBase = alignUp(cursor+opts.InstrGap, sectionGap)
}

// cloneBytes returns the total size of the clone section.
func (p *PatchPlan) cloneBytes() uint64 {
	var n uint64
	for _, c := range p.clones {
		n = alignUp(n, uint64(c.newEntry)) + uint64(c.newEntry*c.tbl.Count)
	}
	return n
}

// placeClones assigns clone addresses inside the clone section.
func (p *PatchPlan) placeClones(base uint64) {
	addr := base
	for _, c := range p.clones {
		addr = alignUp(addr, uint64(c.newEntry))
		c.addr = addr
		addr += uint64(c.newEntry * c.tbl.Count)
	}
}

// resolveTarget returns the item's concrete target address under the
// current relocMap.
func (p *PatchPlan) resolveTarget(it *planItem) uint64 {
	switch it.tk {
	case tkAbs:
		return it.target
	case tkMapped:
		if na, ok := p.relocMap[it.target]; ok {
			return na
		}
		return it.target // not relocated: keep the original address
	case tkClone:
		return p.clones[it.target].addr
	case tkFuncBase:
		return p.unitStart[p.clones[it.target].owner.Name]
	case tkVarEntry:
		return p.varAddr[it.target]
	case tkLocal:
		// Fast-body control flow prefers the fast-body copy; targets the
		// fast body does not carry (none today — every block is copied)
		// fall back to the full body, then the original.
		if na, ok := p.fastReloc[it.target]; ok {
			return na
		}
		if na, ok := p.relocMap[it.target]; ok {
			return na
		}
		return it.target
	default:
		return 0
	}
}

// layout iterates address assignment and range checking to a fixpoint,
// growing items into islands/pairs/veneers as needed. The relocation
// and unit-start maps are allocated once, presized from the plan, and
// cleared between iterations — the fixpoint typically runs two or three
// times, and rebuilding a many-thousand-entry map each round was a
// measurable share of the warm Patch path's allocations.
func (p *PatchPlan) layout(instrBase uint64) error {
	p.instrBase = instrBase
	a := p.an.Binary.Arch
	// Return-address contributions are fixed by the plan, so each
	// unit's slot in the emit stage's pair slice is assigned once here.
	mapped, fastMapped := 0, 0
	p.raCount = 0
	for _, u := range p.units {
		u.raStart = p.raCount
		for i := range u.items {
			if u.items[i].mapAddr != 0 {
				mapped++
			}
			if u.items[i].vmap != 0 {
				fastMapped++
			}
			if u.items[i].ra != raNone {
				p.raCount++
			}
		}
	}
	p.relocMap = make(map[uint64]uint64, mapped)
	p.fastReloc = make(map[uint64]uint64, fastMapped)
	p.unitStart = make(map[string]uint64, len(p.units))
	for iter := 0; iter < 24; iter++ {
		addr := instrBase
		clear(p.relocMap)
		clear(p.fastReloc)
		clear(p.unitStart)
		for _, u := range p.units {
			addr = alignUp(addr, instrAlign)
			p.unitStart[u.fn.Name] = addr
			for i := range u.items {
				it := &u.items[i]
				it.newAddr = addr
				it.newLen = p.emitter.ExpandedLen(p.env, it.ins, it.expand)
				if it.mapAddr != 0 {
					if _, dup := p.relocMap[it.mapAddr]; !dup {
						p.relocMap[it.mapAddr] = addr
					}
				}
				if it.vmap != 0 {
					if _, dup := p.fastReloc[it.vmap]; !dup {
						p.fastReloc[it.vmap] = addr
					}
				}
				addr += uint64(it.newLen)
			}
			if u.variants > 0 {
				// The alternate variant enters at its restore item; the
				// stub's tkVarEntry branch resolves through this slot.
				p.varAddr[u.varSlot] = u.items[u.fastStart].newAddr
			}
		}
		p.instrEnd = addr

		changed := false
		for _, u := range p.units {
			for i := range u.items {
				it := &u.items[i]
				if it.expand == arch.ExpandEmulCall && a.FixedWidth() {
					t := p.resolveTarget(it)
					if abs64(int64(t-it.newAddr)) > arch.DirectBranchRange(a) {
						it.expand = arch.ExpandEmulCallFar
						changed = true
					}
					continue
				}
				if it.tk == tkNone || it.pf != arch.FormPCRel || it.expand != arch.ExpandNone {
					continue
				}
				t := p.resolveTarget(it)
				disp := int64(t - it.newAddr)
				switch it.ins.Kind {
				case arch.BranchCond:
					if abs64(disp) > arch.CondBranchRange(a) {
						it.expand = arch.ExpandCondIsland
						changed = true
					}
				case arch.Branch:
					if abs64(disp) > arch.DirectBranchRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: branch at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandFarBranch
						changed = true
					}
				case arch.Call:
					if abs64(disp) > arch.CallRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: call at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandFarCall
						changed = true
					}
				case arch.Lea:
					if abs64(disp) > arch.LeaRange(a) {
						if !a.FixedWidth() {
							return fmt.Errorf("core: lea at %#x cannot reach %#x", it.newAddr, t)
						}
						it.expand = arch.ExpandLeaPair
						changed = true
					}
				case arch.LoadPC:
					limit := int64(1<<31 - 1)
					if a.FixedWidth() {
						limit = 1<<18 - 1
					}
					if abs64(disp) > limit {
						return fmt.Errorf("core: pc-relative load at %#x cannot reach %#x", it.newAddr, t)
					}
				}
			}
		}
		if !changed {
			return nil
		}
	}
	return fmt.Errorf("core: relocation layout did not converge")
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
