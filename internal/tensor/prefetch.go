package tensor

import "unsafe"

// PrefetchRows asks the CPU to start loading rows ids of the row-major
// matrix data (rows of dim float32s) into cache, so a later pass over
// them finds them there instead of waiting on one miss at a time. It
// reads and writes nothing, so no result can depend on it; ids need not
// be in range (a prefetch never faults). It does nothing unless the
// vector kernels are on, which keeps the Go path exactly the one the
// vector kernels are tested against.
func PrefetchRows(data []float32, ids []int32, dim int) {
	if !vectorKernels || len(ids) == 0 || len(data) == 0 || dim <= 0 {
		return
	}
	prefetchRows(unsafe.Pointer(&data[0]), &ids[0], len(ids), dim*4)
}
