//go:build !race

package nn

import "testing"

// forEachKernelPath runs f with the AVX assembly, where the host has AVX,
// and then with the Go twins an amd64 host without AVX runs.
func forEachKernelPath(t testing.TB, f func(path string)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	if cpuidAVX() {
		useAVX = true
		f("AVX")
	}
	useAVX = false
	f("no AVX")
}

// hostAVX reports what CPUID says of AVX, and that this build asked it.
func hostAVX() (avx, detected bool) { return cpuidAVX(), true }
