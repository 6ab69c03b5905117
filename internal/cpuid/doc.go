// Package cpuid asks the CPU, once per process, which vector extensions the
// host kernels may use. It is the one place that runs CPUID and XGETBV; on
// amd64 it exports AVX and AVX2, and a kernel built for another GOARCH does
// not import it.
package cpuid
