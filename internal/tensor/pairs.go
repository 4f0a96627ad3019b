package tensor

// The dot interaction's pair kernels. A DLRM dot interaction feeds the
// top MLP the inner product of every pair i < j of one example's n
// feature vectors (the bottom-MLP output, then the pooled embeddings).
// The kernels take those vectors as n rows of length d stored back to
// back and number the pairs in lexicographic order: (0,1), (0,2), …,
// (0,n-1), (1,2), ….

// DotPairs sets dst[k] = Dot(rows[i], rows[j]) for the k-th pair i < j of
// the n rows of length d in rows; dst holds n(n-1)/2 values. Each value
// has Dot's bits: four chains over p ≡ 0..3 (mod 4), combined as
// (s0+s1)+(s2+s3), then the last d mod 4 products added in order. The
// vector kernel computes the four chains of up to eight pairs at once.
func DotPairs(dst, rows []float32, n, d int) {
	if n < 2 {
		return
	}
	rows, dst = rows[:n*d], dst[:n*(n-1)/2]
	d4 := 0
	if vectorKernels && d >= 4 {
		d4 = d &^ 3
		dotPairsVec(&dst[0], &rows[0], n, d, d4)
		if d4 == d {
			return
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		a := rows[i*d : (i+1)*d]
		for j := i + 1; j < n; j++ {
			b := rows[j*d : (j+1)*d]
			if d4 == 0 {
				dst[k] = Dot(a, b)
			} else {
				for p := d4; p < d; p++ { // Dot's tail, after the vector kernel
					dst[k] += a[p] * b[p]
				}
			}
			k++
		}
	}
}

// DotPairsBackward is DotPairs' backward pass. grads is laid out like
// rows, and g holds the upstream gradient of each pair in DotPairs'
// order. For every pair k = (i, j) whose g[k] is not zero it adds
// g[k]·rows[j] to grads[i] and g[k]·rows[i] to grads[j], each product
// rounded before its add as Axpy does, so every element receives its adds
// in pair order. A zero g[k] adds nothing — not even ±0 or the NaN of
// 0·Inf — which fixes the sign of zero sums.
func DotPairsBackward(grads, rows, g []float32, n, d int) {
	if n < 2 {
		return
	}
	rows, grads, g = rows[:n*d], grads[:n*d], g[:n*(n-1)/2]
	c := 0
	if vectorKernels && d >= 8 {
		c = d &^ 7
		dotPairsBwdVec(&grads[0], &rows[0], &g[0], n, d, c)
	}
	if c == d {
		return
	}
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gd := g[k]
			k++
			if gd == 0 {
				continue
			}
			Axpy(gd, rows[j*d+c:(j+1)*d], grads[i*d+c:(i+1)*d])
			Axpy(gd, rows[i*d+c:(i+1)*d], grads[j*d+c:(j+1)*d])
		}
	}
}
