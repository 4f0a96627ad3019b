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
// fill, which builds a DedupIndex, may instead index the cells by the
// id itself when a bag's ids are small enough (the direct mode).
//
// keys may run ahead of the index (adopt, or a direct fill); the next
// slot call indexes the rest first, so a set answers correctly however
// it was filled.
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
	s.nextGen()
}

// nextGen moves to a fresh generation, in which every cell reads empty.
func (s *rowSet) nextGen() {
	s.gen++
	if s.gen == 0 {
		clear(s.cells)
		s.gen = 1
	}
}

// fill resets the set to the rows of ids and writes each id's slot to
// slots[k]: slot calls in order, with the same keys and slots. When
// every id is below the larger of len(cells) and the index a bag of
// len(ids) distinct ids could need, the cells are indexed by the id
// itself instead (the direct mode): one stamp compare per id, no hash
// and no probe. One max pass over ids decides; a negative id reads as
// too large. The direct array is then no larger than the hashed index
// the same bag could grow, so the mode costs no memory the set would
// not spend anyway. A direct fill leaves ids at their own positions
// rather than their hashes', so it marks the keys unindexed and the
// next slot call re-indexes them in a fresh generation.
func (s *rowSet) fill(ids, slots []int32) {
	s.reset()
	var top uint32
	for _, id := range ids {
		top = max(top, uint32(id))
	}
	if uint64(top) >= uint64(max(len(s.cells), 2*(len(ids)+1))) {
		for k, id := range ids {
			slots[k], _ = s.slot(id)
		}
		return
	}
	if int(top) >= len(s.cells) {
		s.grow(int(top) + 1)
	}
	cells, gen := s.cells, s.gen
	for k, id := range ids {
		c := &cells[id]
		if c.stamp != gen {
			*c = rowCell{stamp: gen, id: id, slot: int32(len(s.keys))}
			s.keys = append(s.keys, id)
		}
		slots[k] = c.slot
	}
	s.indexed = 0
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
// a table twice as large if one more key would pass half load. Indexing
// from the first key takes a fresh generation, which clears whatever a
// direct fill left in the cells.
func (s *rowSet) index() {
	if need := 2 * (len(s.keys) + 1); need > len(s.cells) {
		s.grow(need)
	} else if s.indexed == 0 {
		s.nextGen()
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

// grow replaces the cells with empty ones, at least need and at least
// twice as many as before, a power of two.
func (s *rowSet) grow(need int) {
	n := max(minCells, len(s.cells))
	for n < need {
		n <<= 1
	}
	s.cells = make([]rowCell, n)
	s.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	s.gen = 1
	s.indexed = 0
}

// home is id's first probe position.
func (s *rowSet) home(id int32) int {
	return int(uint64(uint32(id)) * fib64 >> s.shift)
}
