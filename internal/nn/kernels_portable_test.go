//go:build !amd64 || race

package nn

import "testing"

// forEachKernelPath runs f once: off amd64, and under -race, the kernels
// are the Go twins.
func forEachKernelPath(t testing.TB, f func(path string)) {
	t.Helper()
	f("Go")
}

// hostAVX reports that this build does not detect AVX.
func hostAVX() (avx, detected bool) { return false, false }
