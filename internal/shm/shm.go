// Package shm implements the shared-memory channel of the adaptive fabric:
// a real byte region shared between NVMe-oF client and target (standing in
// for an IVSHMEM/ICSHMEM mapping), organized as the paper's lock-free
// double buffer (§4.4.1).
//
// The region is logically split into two halves — one written by the
// client (host-to-controller payloads), one written by the target
// (controller-to-host payloads) — and each half is divided into slots of
// the I/O size, one per queue-depth entry. Slot ownership is claimed with
// atomic compare-and-swap in round-robin order, so concurrent I/O streams
// touch disjoint offsets without a lock. A legacy locked mode reproduces
// the paper's "SHM-baseline" design for the Fig 8 ablation, and a
// free-list claimer exists as an ablation alternative to round-robin.
package shm

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"nvmeoaf/internal/model"
	"nvmeoaf/internal/sim"
	"nvmeoaf/internal/stats"
	"nvmeoaf/internal/telemetry"
)

// Direction selects a half of the double buffer.
type Direction int

const (
	// H2C is the client-owned half (write payloads travelling to the
	// target).
	H2C Direction = iota
	// C2H is the target-owned half (read payloads travelling to the
	// client).
	C2H
)

func (d Direction) String() string {
	if d == H2C {
		return "h2c"
	}
	return "c2h"
}

// Mode selects the concurrency design of the region.
type Mode int

const (
	// ModeLockFree is the paper's lock-free double-buffer design: slots
	// are claimed with atomic CAS, copies proceed concurrently.
	ModeLockFree Mode = iota
	// ModeLocked is the naive SHM-baseline: one region lock guards every
	// shared-memory access and is held for the duration of the copy,
	// serializing all data movement (Fig 8's first bar).
	ModeLocked
)

func (m Mode) String() string {
	if m == ModeLocked {
		return "locked"
	}
	return "lock-free"
}

// ClaimPolicy selects how slots are picked within a half.
type ClaimPolicy int

const (
	// ClaimRoundRobin walks slots in order relative to the I/O depth, as
	// the paper describes (§4.4.1).
	ClaimRoundRobin ClaimPolicy = iota
	// ClaimFreeList pops the most recently released slot (ablation
	// alternative; better cache locality, more contention on the head).
	ClaimFreeList
)

// A slot's state word holds its claim generation above a busy bit.
// Claiming sets the bit; releasing clears it and advances the generation,
// so a handle of an earlier claim no longer matches the word and cannot
// free a later claim of the same slot.
const (
	slotBusy uint32 = 1
	slotGen  uint32 = 2 // one generation step
)

// Region is one shared-memory mapping between a client and a target.
type Region struct {
	Key       uint64
	SlotSize  int
	SlotCount int

	e      *sim.Engine
	params model.SHMParams
	mode   Mode
	policy ClaimPolicy
	data   []byte // real backing bytes: [H2C slots][C2H slots]

	state   [2][]uint32 // atomic slot state words per half, see slotBusy
	rr      [2]uint32   // round-robin cursors
	freeLst [2][]uint32 // free-list stacks (ClaimFreeList)
	credits [2]*sim.Semaphore
	lock    *sim.Semaphore // region lock (ModeLocked)

	rng *rand.Rand

	// revoked marks the mapping torn down (VM migration, helper-process
	// death): claims and opens fail, releases become no-ops.
	revoked uint32 // atomic
	// onRevoke callbacks run once, in the revoker's context.
	onRevoke []func()

	// Encryption state (see crypto.go).
	encKey uint64
	encBps float64

	// Metrics.
	Claims, Releases int64
	CopiedBytes      int64
	FutexStalls      int64
	ClaimWait        *stats.Histogram // time spent waiting for a free slot
	LockWait         *stats.Histogram // time spent waiting for the region lock

	tel *telemetry.Sink
}

// NewRegion allocates a region with slotCount slots of slotSize bytes in
// each direction.
func NewRegion(e *sim.Engine, key uint64, slotSize, slotCount int, params model.SHMParams, mode Mode, policy ClaimPolicy) (*Region, error) {
	if slotSize <= 0 || slotCount <= 0 {
		return nil, fmt.Errorf("shm: invalid geometry %dx%d", slotCount, slotSize)
	}
	total := 2 * slotSize * slotCount
	r := &Region{
		Key:       key,
		SlotSize:  slotSize,
		SlotCount: slotCount,
		e:         e,
		params:    params,
		mode:      mode,
		policy:    policy,
		data:      make([]byte, total),
		lock:      sim.NewSemaphore(e, 1),
		rng:       e.Rand(fmt.Sprintf("shm/%d", key)),
		ClaimWait: stats.NewHistogram(),
		LockWait:  stats.NewHistogram(),
		tel:       telemetry.Disabled,
	}
	for d := 0; d < 2; d++ {
		r.state[d] = make([]uint32, slotCount)
		r.credits[d] = sim.NewSemaphore(e, slotCount)
		if policy == ClaimFreeList {
			r.freeLst[d] = make([]uint32, 0, slotCount)
			for i := slotCount - 1; i >= 0; i-- {
				r.freeLst[d] = append(r.freeLst[d], uint32(i))
			}
		}
	}
	return r, nil
}

// AttachTelemetry routes the region's claim/release/revocation activity
// into s. A nil sink disables.
func (r *Region) AttachTelemetry(s *telemetry.Sink) {
	if s == nil {
		s = telemetry.Disabled
	}
	r.tel = s
}

// Size returns the total region size in bytes.
func (r *Region) Size() int { return len(r.data) }

// Revoked reports whether the mapping has been torn down.
func (r *Region) Revoked() bool { return atomic.LoadUint32(&r.revoked) == 1 }

// Revoke tears the mapping down, as a VM migration or helper-process
// death would: subsequent Claims return nil, Opens fail, and processes
// blocked waiting for a slot credit are woken to observe the revocation.
// Registered OnRevoke callbacks fire once, in the revoker's context.
// Idempotent.
func (r *Region) Revoke() {
	if !atomic.CompareAndSwapUint32(&r.revoked, 0, 1) {
		return
	}
	// Wake every blocked claimer: inject one permit per slot per half.
	// Claimers re-check Revoked after acquiring and bail out, so the
	// surplus permits are never spent on real slots.
	for d := 0; d < 2; d++ {
		for i := 0; i < r.SlotCount; i++ {
			r.credits[d].Release()
		}
	}
	r.tel.Inc(telemetry.CtrSHMRevocations)
	r.tel.Trace(int64(r.e.Now()), telemetry.EvRevoked, 0, "shm", "region")
	cbs := r.onRevoke
	r.onRevoke = nil
	for _, fn := range cbs {
		fn()
	}
}

// OnRevoke registers fn to run when the region is revoked (immediately if
// it already was). fn runs in the revoker's context and must not block.
func (r *Region) OnRevoke(fn func()) {
	if r.Revoked() {
		fn()
		return
	}
	r.onRevoke = append(r.onRevoke, fn)
}

// Slot is a handle on one claim of an element of the double buffer, held
// by value: Claim, ClaimN and Open allocate nothing. It carries the
// claim's generation, so releasing through a stale copy (a second release,
// or one after the peer freed the slot and it was claimed again) cannot
// free whoever holds the slot now: Release panics and TryRelease reports
// false. The zero Slot names no claim.
type Slot struct {
	r     *Region
	dir   Direction
	Index uint32
	word  uint32 // the slot's state word while this claim holds it
}

// Valid reports whether s names a claim: Claim returns the zero Slot when
// the region has been revoked.
func (s Slot) Valid() bool { return s.r != nil }

// slotBytes returns the backing slice for (dir, idx).
func (r *Region) slotBytes(dir Direction, idx uint32) []byte {
	base := int(dir)*r.SlotSize*r.SlotCount + int(idx)*r.SlotSize
	return r.data[base : base+r.SlotSize : base+r.SlotSize]
}

// Claim acquires a slot in the given direction, blocking while all slots
// are busy (this is the shared-memory flow control: payloads stay in the
// region until the peer consumes them, so slot credits bound the in-flight
// data, §4.4.2). The claim itself is lock-free: an atomic CAS over the
// round-robin cursor or free list.
// Claim returns the zero Slot when the region has been revoked —
// including when the revocation lands while the claimer is blocked on a
// slot credit.
func (r *Region) Claim(p *sim.Proc, dir Direction) Slot {
	if r.Revoked() {
		return Slot{}
	}
	t0 := p.Now()
	r.credits[dir].Acquire(p)
	wait := p.Now().Sub(t0)
	r.ClaimWait.RecordDuration(wait)
	r.tel.ObserveDuration(telemetry.HistClaimWait, wait)
	if r.Revoked() {
		return Slot{}
	}
	p.Sleep(r.params.SlotOverhead)
	if r.Revoked() {
		return Slot{}
	}

	s := r.claimSlot(dir)
	r.Claims++
	r.tel.Inc(telemetry.CtrSHMClaims)
	return s
}

// claimSlot claims one free slot in dir. The caller must hold a credit,
// which guarantees a free slot exists.
func (r *Region) claimSlot(dir Direction) Slot {
	st := r.state[dir]
	switch r.policy {
	case ClaimFreeList:
		lst := r.freeLst[dir]
		idx := lst[len(lst)-1]
		r.freeLst[dir] = lst[:len(lst)-1]
		if w, ok := tryBusy(&st[idx]); ok {
			return Slot{r: r, dir: dir, Index: idx, word: w}
		}
		panic("shm: free-list slot was busy")
	default: // round-robin
		for {
			i := atomic.AddUint32(&r.rr[dir], 1) - 1
			idx := i % uint32(r.SlotCount)
			if w, ok := tryBusy(&st[idx]); ok {
				return Slot{r: r, dir: dir, Index: idx, word: w}
			}
			// Credit accounting guarantees a free slot exists; skip the
			// busy ones (out-of-order completion leaves holes).
		}
	}
}

// tryBusy claims the slot whose state word is at w if it is free, and
// returns the word the claim holds.
func tryBusy(w *uint32) (uint32, bool) {
	old := atomic.LoadUint32(w)
	if old&slotBusy != 0 || !atomic.CompareAndSwapUint32(w, old, old|slotBusy) {
		return 0, false
	}
	return old | slotBusy, true
}

// ClaimN acquires up to n slots in one doorbell-amortized operation for
// the batched submission path: the fixed SlotOverhead (I/O-vector write
// + memory fence) is paid once for the whole train instead of once per
// slot. It blocks for the first credit only and takes the remaining
// ones opportunistically, so a claimer never blocks while holding
// partial credits (two batching submitters could otherwise deadlock
// each holding half the region). Claimed slots are appended to dst
// (pass a reused backing slice to keep the hot path allocation-free);
// the caller falls back to per-slot Claim for whatever the train did
// not cover. Returns nil when the region has been revoked — including
// while blocked on the first credit.
func (r *Region) ClaimN(p *sim.Proc, dir Direction, n int, dst []Slot) []Slot {
	if n <= 0 {
		return dst
	}
	if r.Revoked() {
		return nil
	}
	t0 := p.Now()
	r.credits[dir].Acquire(p)
	if r.Revoked() {
		return nil
	}
	got := 1
	for got < n && r.credits[dir].TryAcquire() {
		got++
	}
	wait := p.Now().Sub(t0)
	r.ClaimWait.RecordDuration(wait)
	r.tel.ObserveDuration(telemetry.HistClaimWait, wait)
	p.Sleep(r.params.SlotOverhead)
	if r.Revoked() {
		// Return the acquired credits: Revoke's permit flood only covers
		// claimers blocked at revocation time.
		for i := 0; i < got; i++ {
			r.credits[dir].Release()
		}
		return nil
	}
	for i := 0; i < got; i++ {
		dst = append(dst, r.claimSlot(dir))
	}
	r.Claims += int64(got)
	r.tel.Add(telemetry.CtrSHMClaims, int64(got))
	return dst
}

// Open adopts the current claim of a slot by index, as the peer side does
// when an out-of-band notification names the slot it should read.
func (r *Region) Open(dir Direction, idx uint32) (Slot, error) {
	if r.Revoked() {
		return Slot{}, fmt.Errorf("shm: region %d revoked", r.Key)
	}
	if int(idx) >= r.SlotCount {
		return Slot{}, fmt.Errorf("shm: slot %d out of range (%d)", idx, r.SlotCount)
	}
	w := atomic.LoadUint32(&r.state[dir][idx])
	if w&slotBusy == 0 {
		return Slot{}, fmt.Errorf("shm: slot %s/%d not busy", dir, idx)
	}
	return Slot{r: r, dir: dir, Index: idx, word: w}, nil
}

// Release returns the slot to the allocator. Releasing into a revoked
// region is a no-op (the mapping is gone). Releasing a claim that has
// ended already (released twice, or freed by the peer) panics — use
// TryRelease where ownership is ambiguous.
func (s Slot) Release() {
	if !s.r.Revoked() && !s.free() {
		panic(fmt.Sprintf("shm: release of slot %s/%d through a stale handle", s.dir, s.Index))
	}
}

// TryRelease frees the slot if this handle's claim still holds it and
// reports whether it did. Recovery paths use it when slot ownership is
// ambiguous — a timed-out command's slot may have been consumed and freed
// by the peer already, and even claimed again by another command, which
// plain Release would treat as a fatal stale release.
func (s Slot) TryRelease() bool {
	return !s.r.Revoked() && s.free()
}

// free ends the handle's claim if it still holds the slot.
func (s Slot) free() bool {
	r := s.r
	if !atomic.CompareAndSwapUint32(&r.state[s.dir][s.Index], s.word, s.word&^slotBusy+slotGen) {
		return false
	}
	if r.policy == ClaimFreeList {
		r.freeLst[s.dir] = append(r.freeLst[s.dir], s.Index)
	}
	r.Releases++
	r.tel.Inc(telemetry.CtrSHMReleases)
	r.credits[s.dir].Release()
	return true
}

// Bytes exposes the slot's backing memory for zero-copy use: the
// application fills (or reads) the shared bytes in place.
func (s Slot) Bytes() []byte { return s.r.slotBytes(s.dir, s.Index) }

// Region returns the slot's owning region.
func (s Slot) Region() *Region { return s.r }

// copyCost returns the modeled time to move n bytes across the region
// boundary.
func (r *Region) copyCost(n int) time.Duration {
	return time.Duration(float64(n) / r.params.CopyBytesPerSec * 1e9)
}

// acquireLockIfNeeded takes the region lock in ModeLocked, charging the
// extra critical-section overhead; it returns a release func. A small
// fraction of acquisitions take the futex slow path (cross-VM mutex
// handoff through the kernel), the locked design's main tail-latency
// contribution (§4.4.4).
func (r *Region) acquireLockIfNeeded(p *sim.Proc) func() {
	if r.mode != ModeLocked {
		return func() {}
	}
	t0 := p.Now()
	r.lock.Acquire(p)
	r.LockWait.RecordDuration(p.Now().Sub(t0))
	p.Sleep(r.params.LockHold)
	if r.params.FutexProb > 0 && r.rng.Float64() < r.params.FutexProb {
		r.FutexStalls++
		r.tel.Inc(telemetry.CtrSHMFutexStalls)
		p.Sleep(time.Duration(float64(r.params.FutexPenalty) * (0.5 + r.rng.Float64())))
	}
	return r.lock.Release
}

// CopyIn moves payload bytes from a private buffer into the slot. data may
// be nil for modeled payloads: the time cost is charged either way, the
// bytes only move when real. n is the payload size. On encrypted regions
// the payload is enciphered on the way in and the cipher cost charged.
func (s Slot) CopyIn(p *sim.Proc, data []byte, n int) {
	if n > s.r.SlotSize {
		panic(fmt.Sprintf("shm: payload %d exceeds slot size %d", n, s.r.SlotSize))
	}
	unlock := s.r.acquireLockIfNeeded(p)
	defer unlock()
	p.Sleep(s.r.copyCost(n) + s.r.cryptoCost(n))
	if data != nil {
		copy(s.Bytes(), data[:n])
	}
	s.seal(n)
	s.r.CopiedBytes += int64(n)
}

// CopyOut moves payload bytes from the slot into a private buffer (nil
// dst for modeled payloads). It returns the destination slice when real.
// On encrypted regions the payload is deciphered on the way out.
func (s Slot) CopyOut(p *sim.Proc, dst []byte, n int) []byte {
	if n > s.r.SlotSize {
		panic(fmt.Sprintf("shm: payload %d exceeds slot size %d", n, s.r.SlotSize))
	}
	unlock := s.r.acquireLockIfNeeded(p)
	defer unlock()
	p.Sleep(s.r.copyCost(n) + s.r.cryptoCost(n))
	s.r.CopiedBytes += int64(n)
	if dst != nil {
		s.unseal(n)
		copy(dst, s.Bytes()[:n])
		s.seal(n) // bytes at rest in the region stay enciphered
		return dst[:n]
	}
	return nil
}

// Busy returns the number of busy slots in a direction (for tests and
// introspection).
func (r *Region) Busy(dir Direction) int {
	n := 0
	for i := range r.state[dir] {
		if atomic.LoadUint32(&r.state[dir][i])&slotBusy != 0 {
			n++
		}
	}
	return n
}
