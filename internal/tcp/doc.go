// Package tcp holds the NVMe/TCP tests: in-capsule and R2T flow control,
// application-level chunking, busy poll, keep-alive and teardown, run on
// internal/dial's tcp-* rows. Those rows are the adaptive binding
// (internal/core) with no shared-memory design, presenting transport type
// NVMe/TCP; this package declares nothing.
package tcp
