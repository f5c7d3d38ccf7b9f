package emu

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

const pageSize = 4096

// tlbSize is the number of entries in Memory's direct-mapped page
// lookup cache (a power of two).
const tlbSize = 64

// zeroPage is the all-zero chunk Map compares section data against.
var zeroPage [pageSize]byte

// Memory is a sparse paged address space. Data reads and writes lazily
// map zero pages (the OS model of demand-paged anonymous memory), but
// instruction fetch is only allowed from ranges loaded as executable, so
// control flow escaping into unmapped or non-executable memory faults —
// the detector behind the paper's illegal-instruction verification mode.
type Memory struct {
	pages  map[uint64]*[pageSize]byte
	ranges []memRange
	// tlb caches page lookups so that most accesses skip the map.
	tlb [tlbSize]tlbEntry
	// gen changes whenever executable bytes may have changed: on Map and
	// on every write overlapping an executable range. Instructions
	// decoded under an older generation are stale.
	gen uint64
}

type memRange struct {
	start, end uint64
	exec       bool
}

type tlbEntry struct {
	base uint64 // page number
	page *[pageSize]byte
	exec bool // an executable range overlaps the page
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	return &Memory{pages: map[uint64]*[pageSize]byte{}, gen: 1}
}

// Map registers [start, start+len(data)) as a loaded range, copying data
// into it. Loaded ranges must not overlap.
func (m *Memory) Map(start uint64, data []byte, exec bool) {
	m.addRange(start, start+uint64(len(data)), exec)
	for len(data) > 0 {
		off := start % pageSize
		n := min(pageSize-off, uint64(len(data)))
		if chunk := data[:n]; !bytes.Equal(chunk, zeroPage[:n]) {
			copy(m.entry(start).page[off:], chunk)
		}
		start += n
		data = data[n:]
	}
}

// addRange registers [start, end) as loaded without touching its pages,
// which read as zero until written.
func (m *Memory) addRange(start, end uint64, exec bool) {
	m.ranges = append(m.ranges, memRange{start: start, end: end, exec: exec})
	m.tlb = [tlbSize]tlbEntry{} // the pages' exec bits may have changed
	m.gen++
}

// entry returns the lookup entry for the page holding addr, mapping a
// zero page on first touch.
func (m *Memory) entry(addr uint64) *tlbEntry {
	base := addr / pageSize
	e := &m.tlb[base%tlbSize]
	if e.page == nil || e.base != base {
		p := m.pages[base]
		if p == nil {
			p = new([pageSize]byte)
			m.pages[base] = p
		}
		lo := base * pageSize
		*e = tlbEntry{base: base, page: p, exec: m.execOverlaps(lo, lo+(pageSize-1))}
	}
	return e
}

// execOverlaps reports whether any executable range overlaps the
// inclusive span [lo, hi].
func (m *Memory) execOverlaps(lo, hi uint64) bool {
	for _, r := range m.ranges {
		if r.exec && r.start <= hi && lo < r.end {
			return true
		}
	}
	return false
}

// Executable reports whether addr lies in an executable mapped range.
func (m *Memory) Executable(addr uint64) bool {
	for _, r := range m.ranges {
		if r.exec && addr >= r.start && addr < r.end {
			return true
		}
	}
	return false
}

// FetchWindow returns up to max bytes of executable memory at addr for
// the decoder (fewer near the end of the range; zero if addr is not
// executable).
func (m *Memory) FetchWindow(addr uint64, max int) []byte {
	out := make([]byte, max)
	n, ok := m.fetch(addr, out)
	if !ok {
		return nil
	}
	return out[:n:n]
}

// fetch is FetchWindow into a caller-owned buffer: it copies up to
// len(buf) bytes of executable memory at addr and returns how many, or
// false if addr is not executable.
func (m *Memory) fetch(addr uint64, buf []byte) (int, bool) {
	for _, r := range m.ranges {
		if r.exec && addr >= r.start && addr < r.end {
			n := uint64(len(buf))
			if addr+n > r.end {
				n = r.end - addr
			}
			for i := uint64(0); i < n; {
				a := addr + i
				i += uint64(copy(buf[i:n], m.entry(a).page[a%pageSize:]))
			}
			return int(n), true
		}
	}
	return 0, false
}

// Read returns size bytes at addr, zero-extended into a uint64.
func (m *Memory) Read(addr uint64, size uint8) (uint64, error) {
	if size == 0 || size > 8 {
		return 0, fmt.Errorf("emu: bad read size %d", size)
	}
	if off := addr % pageSize; off+uint64(size) <= pageSize {
		b := m.entry(addr).page[off : off+uint64(size)]
		switch size {
		case 8:
			return binary.LittleEndian.Uint64(b), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(b)), nil
		}
		var v uint64
		for i, x := range b {
			v |= uint64(x) << (8 * i)
		}
		return v, nil
	}
	var v uint64
	for i := uint8(0); i < size; i++ {
		a := addr + uint64(i)
		v |= uint64(m.entry(a).page[a%pageSize]) << (8 * i)
	}
	return v, nil
}

// Write stores the low size bytes of v at addr.
func (m *Memory) Write(addr uint64, v uint64, size uint8) error {
	if size == 0 || size > 8 {
		return fmt.Errorf("emu: bad write size %d", size)
	}
	if off := addr % pageSize; off+uint64(size) <= pageSize {
		e := m.entry(addr)
		b := e.page[off : off+uint64(size)]
		switch size {
		case 8:
			binary.LittleEndian.PutUint64(b, v)
		case 4:
			binary.LittleEndian.PutUint32(b, uint32(v))
		default:
			for i := range b {
				b[i] = byte(v >> (8 * i))
			}
		}
		if e.exec && m.execOverlaps(addr, addr+uint64(size)-1) {
			m.gen++
		}
		return nil
	}
	for i := uint8(0); i < size; i++ {
		a := addr + uint64(i)
		e := m.entry(a)
		e.page[a%pageSize] = byte(v >> (8 * i))
		if e.exec && m.execOverlaps(a, a) {
			m.gen++
		}
	}
	return nil
}

// ReadU64 implements unwind.Memory.
func (m *Memory) ReadU64(addr uint64) (uint64, error) { return m.Read(addr, 8) }
