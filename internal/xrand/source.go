package xrand

import "math/rand"

// The additive lagged-Fibonacci generator behind rand.NewSource (Mitchell
// and Reeds): x_n = x_{n-607} + x_{n-273} over a 607-word register.
const (
	regLen  = 607
	regTap  = 273
	regMask = 1<<63 - 1
)

// source is math/rand's generator with its state held here rather than
// behind rand.Source, so that fillUniform can keep the register's cursors
// in locals instead of paying an interface call per value. Its stream is
// rand.NewSource's, draw for draw (TestStreamMatchesMathRand).
type source struct {
	vec       [regLen]int64
	tap, feed int
}

func newSource(seed int64) *source {
	s := &source{}
	s.Seed(seed)
	return s
}

// Seed puts s in the state rand.NewSource(seed) starts in. math/rand
// builds that register from a private 607-word table, so instead of
// copying the table, Seed draws one full turn of the register from
// rand.NewSource and undoes it. A turn writes each feed position once,
// so after it the register holds exactly the turn's draws, each at its
// feed position. Walking the turn backwards and subtracting each tap
// word recovers the seeded register, with tap and feed back where a
// fresh source has them.
func (s *source) Seed(seed int64) {
	ref := rand.NewSource(seed).(rand.Source64)
	s.tap, s.feed = 0, regLen-regTap
	for range regLen {
		s.step()
		s.vec[s.feed] = int64(ref.Uint64())
	}
	for range regLen {
		s.vec[s.feed] -= s.vec[s.tap]
		s.tap++
		if s.tap == regLen {
			s.tap = 0
		}
		s.feed++
		if s.feed == regLen {
			s.feed = 0
		}
	}
}

// step moves tap and feed one word back, as each draw does first.
func (s *source) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += regLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += regLen
	}
}

// Uint64 returns the next 64-bit word of the stream.
func (s *source) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next word with its top bit cleared.
func (s *source) Int63() int64 { return int64(s.Uint64() & regMask) }

// fillUniform writes (2*f-1)*bound to each element of dst, where f is
// what rand.Rand.Float32 would return next: float32(float64(x&regMask) /
// 2⁶³) for the next word x, drawn again while the float64 or the
// float32 value equals 1, exactly as Rand.Float64 and Rand.Float32 redraw.
func (s *source) fillUniform(dst []float32, bound float32) {
	tap, feed := s.tap, s.feed
	for i := 0; i < len(dst); {
		if tap == 0 {
			tap = regLen
		}
		if feed == 0 {
			feed = regLen
		}
		// The next m words read and write below tap and feed without
		// wrapping, and yield at most m values. They are made in the
		// stream's order, so where the two stretches overlap a tap word
		// is read after this stretch wrote it, as the stream does.
		m := min(tap, feed, len(dst)-i)
		fs := s.vec[feed-m : feed]
		ts := s.vec[tap-m : tap]
		ts = ts[:len(fs)]
		for j := len(fs) - 1; j >= 0; j-- {
			x := fs[j] + ts[j]
			fs[j] = x
			f64 := float64(x&regMask) / (1 << 63)
			if f64 == 1 {
				continue
			}
			f := float32(f64)
			if f == 1 {
				continue
			}
			dst[i] = (2*f - 1) * bound
			i++
		}
		tap -= m
		feed -= m
	}
	s.tap, s.feed = tap, feed
}
