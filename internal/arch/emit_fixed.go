package arch

import "fmt"

// fixedEmitter emits laid-out items for the fixed-width ISAs (PPC and
// A64). Every expansion is a whole number of 4-byte words; far transfers
// go through the TAR/ip0 veneer.
type fixedEmitter struct {
	a Arch
}

// Arch identifies the emitter's architecture.
func (e fixedEmitter) Arch() Arch { return e.a }

// DispatchStub returns the variant-dispatch stub sequence.
func (e fixedEmitter) DispatchStub(env EmitEnv, selCell uint64) []Instr {
	return dispatchStub(e.a, env, selCell)
}

// ExpandedLen returns the encoded length of ins under expansion exp.
func (e fixedEmitter) ExpandedLen(env EmitEnv, ins Instr, exp Expand) int {
	base := EncLen(e.a, ins)
	switch exp {
	case ExpandNone:
		return base
	case ExpandCondIsland:
		return base + EncLen(e.a, Instr{Kind: Branch})
	case ExpandLeaPair:
		return EncLen(e.a, Instr{Kind: LeaHi}) + EncLen(e.a, Instr{Kind: ALUImm})
	case ExpandFarBranch, ExpandFarCall:
		return 3 * 4 // adris/adrp + add + indirect branch
	case ExpandEmulCall, ExpandEmulCallInd:
		return 3 * 4
	case ExpandEmulCallFar:
		return 5 * 4
	default:
		return base
	}
}

// Render appends the item's final instruction sequence to dst.
func (e fixedEmitter) Render(dst []Instr, env EmitEnv, it EmitItem) ([]Instr, error) {
	switch it.Expand {
	case ExpandNone:
		return renderForm(dst, it), nil
	case ExpandCondIsland:
		return renderCondIsland(dst, e.a, it), nil
	case ExpandLeaPair:
		return renderLeaPair(dst, it), nil
	case ExpandFarBranch, ExpandFarCall:
		return e.veneer(dst, env, it.NewAddr, it.Expand, it.Target)
	case ExpandEmulCall, ExpandEmulCallInd, ExpandEmulCallFar:
		return e.emulatedCall(dst, env, it)
	}
	return dst, fmt.Errorf("arch: %s: unsupported expansion %s at %#x -> %#x (orig %#x)",
		e.a, it.Expand, it.NewAddr, it.Target, it.OrigAddr)
}

// emulatedCall appends the fixed-width call emulation: the ORIGINAL
// return address is materialised into LR, then control branches to the
// target (through a veneer when it is out of direct branch range).
func (e fixedEmitter) emulatedCall(dst []Instr, env EmitEnv, it EmitItem) ([]Instr, error) {
	origRA := it.OrigAddr + uint64(it.OrigLen)
	start := len(dst)
	if env.PIE {
		hi := Instr{Kind: LeaHi, Rd: LR, Addr: it.NewAddr}
		hi.SetTarget(origRA)
		dst = append(dst, hi, Instr{Kind: AddImm16, Rd: LR, Rs1: LR, Imm: int64(origRA & 0xFFF)})
	} else {
		dst = append(dst,
			Instr{Kind: MovImm16, Rd: LR, Imm: int64(origRA & 0xFFFF)},
			Instr{Kind: MovK16, Rd: LR, Imm: int64((origRA >> 16) & 0xFFFF), Shift: 1},
		)
	}
	if it.Expand == ExpandEmulCallFar {
		var err error
		if dst, err = e.veneer(dst, env, it.NewAddr+8, ExpandFarBranch, it.Target); err != nil {
			return dst[:start], err
		}
	} else if it.Ins.Kind == CallInd {
		dst = append(dst, Instr{Kind: JumpInd, Rs1: it.Ins.Rs1})
	} else {
		br := Instr{Kind: Branch, Addr: it.NewAddr + 8}
		br.SetTarget(it.Target)
		dst = append(dst, br)
	}
	addr := it.NewAddr
	for i := start; i < len(dst); i++ {
		dst[i].Addr = addr
		addr += 4
	}
	return dst, nil
}

// veneer appends a far transfer through the TAR register: TOC-relative
// address formation on PPC (addis/addi), page-relative on A64 (the
// ip0-style veneer), then an indirect branch or call.
func (e fixedEmitter) veneer(dst []Instr, env EmitEnv, newAddr uint64, exp Expand, t uint64) ([]Instr, error) {
	start := len(dst)
	if e.a == PPC {
		off := int64(t - env.TOCValue)
		lo := int64(int16(off))
		hi := (off - lo) >> 16
		if hi < -(1<<15) || hi >= 1<<15 {
			return dst, fmt.Errorf("arch: %s: %s veneer at %#x: target %#x beyond ±2GB of TOC %#x",
				e.a, exp, newAddr, t, env.TOCValue)
		}
		dst = append(dst,
			Instr{Kind: AddIS, Rd: TAR, Rs1: TOCReg, Imm: hi},
			Instr{Kind: AddImm16, Rd: TAR, Rs1: TAR, Imm: lo},
		)
	} else {
		hi := Instr{Kind: LeaHi, Rd: TAR, Addr: newAddr}
		hi.SetTarget(t)
		dst = append(dst, hi, Instr{Kind: AddImm16, Rd: TAR, Rs1: TAR, Imm: int64(t & 0xFFF)})
	}
	kind := JumpInd
	if exp == ExpandFarCall {
		kind = CallInd
	}
	dst = append(dst, Instr{Kind: kind, Rs1: TAR})
	addr := newAddr
	for i := start; i < len(dst); i++ {
		dst[i].Addr = addr
		addr += 4
	}
	return dst, nil
}
