//go:build !amd64

package main

// cpuModel reports "unknown": the brand string is read with CPUID,
// which only amd64 builds implement.
func cpuModel() string { return "unknown" }
