package embedding

import "math/bits"

// rowSet assigns dense slots to int32 row ids in first-touch order: the
// first distinct id gets slot 0, the next slot 1, and so on. It is the
// package's one row → slot structure, under both DedupIndex and
// SparseGrad.
//
// The index is an open-addressing table of power-of-two size, probed
// linearly from a Fibonacci hash of the id (the top bits of id × 2⁶⁴/φ,
// so strided ids such as multiples of 4096 spread instead of
// clustering). It is kept at most half full and never shrinks, so a set
// reused across batches stops allocating once it has seen its largest
// batch. A cell is live only while its stamp equals the set's
// generation: reset is one increment instead of a clear, and the stamps
// are cleared once when the 32-bit generation wraps.
//
// keys may run ahead of the index (adopt); the next slot call indexes
// the rest first, so a set answers correctly however it was filled.
type rowSet struct {
	keys    []int32   // slot -> row id, first-touch order
	cells   []rowCell // empty or a power of two long
	gen     uint32    // stamp of live cells; 0 until the first reset or index
	shift   uint8     // 64 - log2(len(cells))
	indexed int       // keys[:indexed] are in cells
}

type rowCell struct {
	stamp uint32
	id    int32
	slot  int32
}

// fib64 is 2⁶⁴/φ, the multiplier of Fibonacci hashing.
const fib64 = 0x9E3779B97F4A7C15

// minCells is the smallest index a set allocates.
const minCells = 16

// reset empties the set, keeping its storage.
func (s *rowSet) reset() {
	s.keys = s.keys[:0]
	s.indexed = 0
	s.gen++
	if s.gen == 0 {
		clear(s.cells)
		s.gen = 1
	}
}

// slot returns id's slot, claiming the next one on first touch; fresh
// reports the claim.
func (s *rowSet) slot(id int32) (slot int32, fresh bool) {
	if s.indexed < len(s.keys) || 2*(len(s.keys)+1) > len(s.cells) {
		s.index()
	}
	mask := len(s.cells) - 1
	for i := s.home(id); ; i = (i + 1) & mask {
		c := &s.cells[i]
		if c.stamp != s.gen {
			*c = rowCell{stamp: s.gen, id: id, slot: int32(len(s.keys))}
			s.keys = append(s.keys, id)
			s.indexed++
			return c.slot, true
		}
		if c.id == id {
			return c.slot, false
		}
	}
}

// adopt appends keys, which must be distinct and not in the set, as the
// next slots in order. Indexing them waits for the next slot call.
func (s *rowSet) adopt(keys []int32) {
	s.keys = append(s.keys, keys...)
}

// index brings the cells up to date with keys, first replacing them with
// a table twice as large if one more key would pass half load.
func (s *rowSet) index() {
	if need := 2 * (len(s.keys) + 1); need > len(s.cells) {
		n := max(minCells, len(s.cells))
		for n < need {
			n <<= 1
		}
		s.cells = make([]rowCell, n)
		s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
		s.gen = 1
		s.indexed = 0
	}
	mask := len(s.cells) - 1
	for k := s.indexed; k < len(s.keys); k++ {
		id := s.keys[k]
		i := s.home(id)
		for s.cells[i].stamp == s.gen {
			i = (i + 1) & mask
		}
		s.cells[i] = rowCell{stamp: s.gen, id: id, slot: int32(k)}
	}
	s.indexed = len(s.keys)
}

// home is id's first probe position.
func (s *rowSet) home(id int32) int {
	return int(uint64(uint32(id)) * fib64 >> s.shift)
}
