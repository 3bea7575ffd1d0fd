// Package nvmeoaf is the root of the NVMe-oAF reproduction: a Go
// implementation of "NVMe-oAF: Towards Adaptive NVMe-oF for IO-Intensive
// Workloads on HPC Cloud" (Kashyap & Lu, HPDC '22) on a deterministic
// simulation of the paper's testbed.
//
// The public API lives in package oaf; cmd/figures regenerates every
// figure of the paper and the ablations beyond it. See README.md,
// DESIGN.md, and EXPERIMENTS.md.
package nvmeoaf
