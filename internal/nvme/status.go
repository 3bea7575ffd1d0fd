package nvme

import "fmt"

// Status is an NVMe status field value (status code type in bits 10:8,
// status code in bits 7:0, phase bit excluded).
type Status uint16

// Generic command status codes (SCT 0).
const (
	StatusSuccess          Status = 0x000
	StatusInvalidOpcode    Status = 0x001
	StatusInvalidField     Status = 0x002
	StatusCIDConflict      Status = 0x003
	StatusDataTransferErr  Status = 0x004
	StatusInternalError    Status = 0x006
	StatusAbortRequested   Status = 0x007
	StatusInvalidNamespace Status = 0x00B
	// StatusCommandInterrupted (NVMe 1.4) marks a command shed or aborted
	// by the controller under resource pressure; hosts should retry.
	StatusCommandInterrupted Status = 0x021
	// StatusTransientTransport (NVMe 1.4) marks a transport-path failure
	// (timeout, lost connection); hosts may retry on the same or another
	// path.
	StatusTransientTransport Status = 0x022
	// StatusTenantThrottled marks a command rejected at the target because
	// the submitting tenant's QoS token budget is exhausted. Retryable:
	// tokens refill and ledger borrowing may admit the retry.
	StatusTenantThrottled  Status = 0x023
	StatusLBAOutOfRange    Status = 0x080
	StatusCapacityExceeded Status = 0x081
	StatusNamespaceNotRdy  Status = 0x082
	// StatusWriteFault (media status, SCT 2) marks data the device
	// accepted but could not commit to media — e.g. write-back cache
	// contents lost to a crash or a failed flush. Not retryable: the
	// data is gone and the host must be told.
	StatusWriteFault Status = 0x280
)

// Retryable reports whether the status marks a transient failure the
// host is expected to retry (possibly on another path) rather than a
// command-level error it must surface.
func (s Status) Retryable() bool {
	switch s {
	case StatusCommandInterrupted, StatusTransientTransport, StatusTenantThrottled, StatusDataTransferErr, StatusNamespaceNotRdy:
		return true
	}
	return false
}

// IsError reports whether the status indicates failure.
func (s Status) IsError() bool { return s != StatusSuccess }

func (s Status) String() string {
	switch s {
	case StatusSuccess:
		return "success"
	case StatusInvalidOpcode:
		return "invalid opcode"
	case StatusInvalidField:
		return "invalid field"
	case StatusCIDConflict:
		return "command id conflict"
	case StatusDataTransferErr:
		return "data transfer error"
	case StatusInternalError:
		return "internal error"
	case StatusAbortRequested:
		return "abort requested"
	case StatusInvalidNamespace:
		return "invalid namespace or format"
	case StatusCommandInterrupted:
		return "command interrupted"
	case StatusTransientTransport:
		return "transient transport error"
	case StatusTenantThrottled:
		return "tenant throttled"
	case StatusLBAOutOfRange:
		return "LBA out of range"
	case StatusCapacityExceeded:
		return "capacity exceeded"
	case StatusNamespaceNotRdy:
		return "namespace not ready"
	case StatusWriteFault:
		return "write fault"
	default:
		return fmt.Sprintf("status(0x%03x)", uint16(s))
	}
}

// Error converts a non-success status into an error (nil for success).
func (s Status) Error() error {
	if s == StatusSuccess {
		return nil
	}
	return &StatusError{Status: s}
}

// StatusError wraps a failing NVMe status as a Go error.
type StatusError struct{ Status Status }

func (e *StatusError) Error() string { return "nvme: " + e.Status.String() }
